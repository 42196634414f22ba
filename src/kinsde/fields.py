"""Concrete drift, diffusion, and Lyapunov field families.

All evaluation is pure and reentrant; vectorized over particle arrays.
Singular fields carry their own regularization floor so that nothing in
the package ever divides by zero.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from kinsde.core import CoefficientSet, EmpiricalLaw, InputError, _row_norm


@dataclass(frozen=True)
class RieszDrift:
    """Singular drift b(t, y): Riesz-type kernels around finitely many atoms.

    b(t, y) = sum_j w_j (y - a_j) / max(|y - a_j|, eta_sing)^(alpha + 1)

    The floor ``eta_sing`` keeps evaluation total, so a floor whose power
    ``eta_sing^(alpha + 1)`` underflows is refused; away from the atoms the
    value does not depend on it.
    """

    locations: np.ndarray   # (k, d)
    weights: np.ndarray     # (k,), positive
    alpha: float
    eta_sing: float = 1e-6

    def __init__(self, atoms, alpha: float, eta_sing: float = 1e-6):
        if len(atoms) == 0:
            raise InputError("need at least one atom")
        locs = np.asarray([np.atleast_1d(a[0]) for a in atoms], dtype=float)
        w = np.asarray([a[1] for a in atoms], dtype=float)
        if not (0.0 < alpha < 1.0):
            raise InputError(f"alpha must lie in (0, 1), got {alpha}")
        if not np.all(w > 0):
            raise InputError("atom weights must be positive")
        if not eta_sing > 0:
            raise InputError("eta_sing must be positive")
        if eta_sing < 1.0 and eta_sing ** (alpha + 1.0) < sys.float_info.min:
            # else the value at an atom is 0 / 0 and next to one x / 0
            raise InputError(f"eta_sing^(alpha + 1) underflows at eta_sing = {eta_sing!r}")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "eta_sing", float(eta_sing))

    @property
    def d(self) -> int:
        return self.locations.shape[1]

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        """b(t, y) at points y of shape (n, d), the same at every t; always finite."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if y.shape[1] != self.d:
            raise InputError(f"Riesz drift atoms have {self.d} coordinates, "
                             f"the points have {y.shape[1]}")
        diff = y[:, None, :] - self.locations[None, :, :]          # (n, k, d)
        r = _row_norm(diff, keepdims=True)                         # (n, k, 1)
        np.maximum(r, self.eta_sing, out=r)
        np.power(r, self.alpha + 1.0, out=r)
        np.divide(diff, r, out=diff)
        # einsum sums over the atoms in its own order; a loop over atoms
        # rounds differently for 3-5 atoms
        return np.einsum("nkd,k->nd", diff, self.weights)


@dataclass(frozen=True)
class ConfiningDrift:
    """Polynomially confining drift fields, with an optional perturbation Z(x, y),
    that read neither t nor the law.

    z1(t, x, y)      = -c1 (1 + |x|)^delta x + c2 y
    z2(t, x, y, law) = Z(x, y) - c3 (1 + |y|)^delta y

    ``delta = 0`` keeps both drifts globally Lipschitz; ``delta > 0`` makes
    them superlinear, which the integrators must handle with taming.
    """

    c1: float
    c2: float
    c3: float
    delta: float = 0.0
    perturbation: Callable | None = None

    def __post_init__(self):
        if not (0 < self.c1 < np.inf and 0 < self.c3 < np.inf and np.isfinite(self.c2)):
            raise InputError(f"c1, c2, c3 = {self.c1!r}, {self.c2!r}, {self.c3!r} must be "
                             "finite with c1, c3 > 0")
        if not 0 <= self.delta < np.inf:
            raise InputError(f"delta must be nonnegative and finite, got {self.delta!r}")

    @property
    def growth(self) -> str:
        return "superlinear" if self.delta > 0 else "linear"

    def _confine(self, c: float, v: np.ndarray) -> np.ndarray:
        """-c (1 + |v|)^delta v row by row.  At delta = 0 the factor is skipped:
        IEEE pow(r, 0) is 1 for every r, NaN and inf included, so -c v has the
        same bits."""
        if self.delta == 0.0:
            return -c * v
        return -c * (1.0 + _row_norm(v, keepdims=True)) ** self.delta * v

    def z1(self, t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._confine(self.c1, x) + self.c2 * y

    def z2(self, t: float, x: np.ndarray, y: np.ndarray, law: EmpiricalLaw | None) -> np.ndarray:
        out = self._confine(self.c3, y)
        if self.perturbation is not None:
            out = out + self.perturbation(x, y)
        return out


def bounded_sine_perturbation(scale: float) -> Callable:
    """Bounded smooth perturbation scale * sin(x), visibly sublinear."""
    return lambda x, y: scale * np.sin(x)


class LyapunovBlocks(NamedTuple):
    value: float
    grad_x: np.ndarray
    grad_y: np.ndarray
    hess_xy: np.ndarray  # (d1, d2) mixed block
    hess_yy: np.ndarray  # (d2, d2) block


@dataclass(frozen=True)
class LyapunovV:
    """V(x, y) = (1 + |x|^2 + |y|^2)^theta with closed-form derivatives."""

    theta: float
    d1: int = 1
    d2: int = 1

    def __post_init__(self):
        if not self.theta > 0:
            raise InputError("theta must be positive")

    def value(self, x, y) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s = 1.0 + float(np.sum(x * x) + np.sum(y * y))
        return s**self.theta

    def value_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized V over rows of (n, d1+d2) points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        s = 1.0 + np.sum(pts * pts, axis=1)
        return s**self.theta

    def powers(self, s):
        """V = s^theta, g = 2 theta s^(theta - 1) and g2 = 4 theta (theta - 1) s^(theta - 2)
        at s = 1 + |x|^2 + |y|^2, so d_y V = g y, d_x d_y V = g2 x y^T, d_y^2 V = g I + g2 y y^T.
        A float s raises OverflowError out of the float range, an array gives inf there."""
        th = self.theta
        return s**th, 2.0 * th * s ** (th - 1.0), 4.0 * th * (th - 1.0) * s ** (th - 2.0)

    def blocks(self, x, y) -> LyapunovBlocks:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        v, g, g2 = self.powers(1.0 + float(np.sum(x * x) + np.sum(y * y)))
        return LyapunovBlocks(v, g * x, g * y, g2 * np.outer(x, y),
                              g * np.eye(y.size) + g2 * np.outer(y, y))


@dataclass(frozen=True)
class PhiFamily:
    """Rate function for the Lyapunov drift condition.

    linear:      Phi(r) = c0 r
    superlinear: Phi(r) = c0 (1 + r^(1 + beta))

    Increasing on [1, inf) with Phi(n) -> inf either way.
    """

    kind: str
    c0: float
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "superlinear"):
            raise InputError(f"unknown Phi kind {self.kind!r}")
        if not 0 < self.c0 < np.inf:
            raise InputError(f"c0 must be positive and finite, got {self.c0!r}")
        if self.kind == "superlinear" and not (self.beta is not None and self.beta > 0):
            raise InputError("superlinear Phi needs beta > 0")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("Phi is defined for r >= 0")
        if self.kind == "linear":
            out = self.c0 * r
        else:
            out = self.c0 * (1.0 + r ** (1.0 + self.beta))
        return float(out) if out.ndim == 0 else out


# --- mean-field interaction ------------------------------------------------------

@dataclass(frozen=True)
class MeanFieldKernel:
    """Bounded interaction kernel W(x, y, x', y') -> R^d2.

    ``structure`` picks the evaluation path:
      constant            -- W is a fixed vector (integral against any probability is W)
      target              -- W depends only on the primed arguments, one cloud pass
      clipped_difference  -- W = clip(x' - x, -1, 1) coordinate by coordinate; one sort
                             of the cloud, prefix sums and three binary searches per
                             coordinate, O((n + M) log M) per step (``_clipped_mean``)
    """

    structure: str
    bound: float
    func: Callable | None = None
    const_value: np.ndarray | None = None

    @staticmethod
    def constant(w) -> "MeanFieldKernel":
        w = np.atleast_1d(np.asarray(w, dtype=float))
        return MeanFieldKernel("constant", float(np.sqrt(np.sum(w * w))), None, w)

    @staticmethod
    def target(g: Callable, bound: float) -> "MeanFieldKernel":
        """g(xp, yp) -> (M, d2) evaluated on the cloud only."""
        return MeanFieldKernel("target", float(bound), g, None)

    @staticmethod
    def clipped_difference() -> "MeanFieldKernel":
        """W = clip(x' - x, -1, 1): attraction toward the cloud, capped at 1 per
        coordinate.  |W| <= 1 holds for one position coordinate only; with d1
        coordinates it reaches sqrt(d1), which ``interaction_z2`` rejects."""
        return MeanFieldKernel("clipped_difference", 1.0, None, None)

    def mean_against(self, x: np.ndarray, y: np.ndarray, law: EmpiricalLaw) -> np.ndarray:
        """integral of W(x, y, ., .) d law, as a weighted particle average: (n, d2),
        or one (1, d2) row for every particle when W does not read (x, y)
        (``constant`` and ``target``), which a sum with an (n, d2) block broadcasts."""
        if self.structure == "constant":
            return self.const_value[None, :]
        if self.structure == "target":
            vals = np.atleast_2d(np.asarray(self.func(law.x, law.y), dtype=float))
            return (law.weights @ vals)[None, :]
        return np.stack([_clipped_mean(x[:, j], law.x[:, j], law.weights)
                         for j in range(x.shape[1])], axis=1)

    def sample_magnitudes(self, n: int, d1: int, d2: int, seed: int = 7) -> np.ndarray:
        """|W| at seeded sample arguments, for the construction spot check."""
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        x = 5.0 * rng.standard_normal((n, d1))
        y = 5.0 * rng.standard_normal((n, d2))
        xp = 5.0 * rng.standard_normal((n, d1))
        yp = 5.0 * rng.standard_normal((n, d2))
        if self.structure == "constant":
            vals = np.broadcast_to(self.const_value, (n, self.const_value.size))
        elif self.structure == "target":
            vals = np.atleast_2d(np.asarray(self.func(xp, yp), dtype=float))
        else:
            vals = np.clip(xp - x, -1.0, 1.0)
        return _row_norm(np.atleast_2d(vals)).ravel()


def _clipped_mean(q: np.ndarray, xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_m w_m clip(xp_m - q_n, -1, 1) for every query q_n, in one coordinate.

    Inside the window |xp - q| <= 1 the clip is the identity and outside it is
    -1 or +1, so each query needs the weight below, inside and above its window
    and the weighted first moment inside it: prefix sums over the sorted cloud
    and binary searches.  The moment of a point is taken about the left edge of
    its cell [4j, 4j + 4), so the prefix sums stay below 4 however far the cloud
    sits from the origin (a moment about 0 would cancel to ~1e-5 at |x| = 1e11);
    a window, 2 wide, meets at most two cells, split at the third search.
    """
    order = np.argsort(xp, kind="stable")
    s, ws = xp[order], w[order]
    cw = np.concatenate(([0.0], np.cumsum(ws)))
    cell = 4.0 * np.floor(0.25 * s)
    cell[s < cell] -= 4.0      # 0.25 s rounds a negative subnormal s to -0, the cell above
    cm = np.concatenate(([0.0], np.cumsum(ws * (s - cell))))
    left = q - 1.0
    edge = 4.0 * np.floor(0.25 * left) + 4.0      # the cell boundary inside the window
    lo = np.searchsorted(s, left, side="left")
    hi = np.searchsorted(s, q + 1.0, side="right")
    mid = np.minimum(np.searchsorted(s, edge, side="left"), hi)
    moment = (cm[hi] - cm[lo] + (edge - 4.0 - q) * (cw[mid] - cw[lo])
              + (edge - q) * (cw[hi] - cw[mid]))
    return moment + (cw[-1] - cw[hi]) - cw[lo]


def interaction_z2(
    base: Callable,
    kernel: MeanFieldKernel,
    kappa: float,
    d1: int = 1,
    d2: int = 1,
) -> Callable:
    """Build the z2 field Z2(t, x, y, mu) = base(t, x, y, mu) + kappa * integral of W d mu.

    The declared kernel bound must be <= 1 and is spot-checked at 256 samples;
    a violated bound rejects the construction.  With ``mu = None`` the
    reference measure is the Dirac mass at the origin, matching how the
    measure-free reading of the field is defined elsewhere.
    The built field is Lipschitz in the measure argument in total variation
    with constant at most ``kappa * bound``.
    """
    if not 0 <= kappa < np.inf:
        raise InputError(f"kappa must be nonnegative and finite, got {kappa!r}")
    if not kernel.bound <= 1.0 + 1e-12:  # a NaN bound fails too
        raise InputError(f"kernel bound {kernel.bound} exceeds 1; construction rejected")
    mags = kernel.sample_magnitudes(256, d1, d2)
    if np.any(mags > kernel.bound * (1.0 + 1e-9) + 1e-12):
        raise InputError(
            f"kernel exceeds its declared bound at a sampled point "
            f"(max |W| = {mags.max():.6g} > {kernel.bound}); construction rejected"
        )
    origin = EmpiricalLaw(np.zeros((1, d1)), np.zeros((1, d2)))

    def z2(t, x, y, law):
        out = base(t, x, y, law)
        if kappa == 0.0:
            return out
        mu = law if law is not None else origin
        return out + kappa * kernel.mean_against(x, y, mu)

    return z2


# --- coefficient set builders ----------------------------------------------------

def _const_sigma(value, d2: int, m: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(d2, m)
    if arr.shape != (d2, m):
        raise InputError(f"a constant sigma must be a number or a ({d2}, {m}) matrix, "
                         f"got shape {arr.shape}")
    return arr


def build_coefficients(
    z1: Callable,
    z2: Callable,
    b: Callable | None,
    sigma,
    d1: int,
    d2: int,
    m: int | None = None,
    growth: str = "linear",
) -> CoefficientSet:
    m = d2 if m is None else m
    if not callable(sigma):
        sigma = _const_sigma(sigma, d2, m)
    return CoefficientSet(d1=d1, d2=d2, m=m, z1=z1, z2=z2, b=b, sigma=sigma, growth=growth)


def confining_coefficients(
    drift: ConfiningDrift,
    b: RieszDrift | None = None,
    d: int = 1,
    sigma=1.0,
    kernel: MeanFieldKernel | None = None,
    kappa: float = 0.0,
) -> CoefficientSet:
    """Assemble the shipped drift family into a full coefficient set.

    ``kernel``/``kappa`` add a mean-field term to z2; ``b`` attaches the
    singular (floored) drift to the noisy block.
    """
    z2 = drift.z2
    if kernel is not None and kappa != 0.0:
        z2 = interaction_z2(z2, kernel, kappa, d1=d, d2=d)
    return build_coefficients(drift.z1, z2, b, sigma, d1=d, d2=d, m=d, growth=drift.growth)


def linear_langevin_coefficients(d: int = 1, sigma=None) -> CoefficientSet:
    """Kinetic benchmark: z1 = y, z2 = -x - y, constant noise (default sqrt(2))."""
    if sigma is None:
        sigma = np.sqrt(2.0)
    return build_coefficients(
        z1=lambda t, x, y: y,  # nothing writes into a drift block
        z2=lambda t, x, y, law: -x - y,
        b=None,
        sigma=sigma,
        d1=d, d2=d,
    )


def scalar_ou_coefficients(rate: float = 1.0, sigma=1.0, d: int = 1) -> CoefficientSet:
    """Frozen position block, Ornstein-Uhlenbeck velocity block."""
    return build_coefficients(
        z1=lambda t, x, y: np.zeros_like(x),
        z2=lambda t, x, y, law: -rate * y,
        b=None,
        sigma=sigma,
        d1=d, d2=d,
    )


def zero_coefficients(d1: int = 1, d2: int = 1, m: int | None = None, sigma=0.0) -> CoefficientSet:
    return build_coefficients(
        z1=lambda t, x, y: np.zeros_like(x),
        z2=lambda t, x, y, law: np.zeros_like(y),
        b=None,
        sigma=sigma,
        d1=d1, d2=d2, m=m,
        growth="bounded",
    )
