"""One-dimensional Zvonkin change of variables for the noisy block.

Solves the resolvent equation (1/2) sigma^2 u'' + b u' - lam u = -b on a
truncated interval with zero boundary values, builds the strictly
increasing map Theta(y) = y + u(y), and rewrites the system so that the
(possibly singular) drift b disappears from the transformed coefficients.
The solve is restricted to d2 = 1; that is enough to exercise the whole
transform pipeline end to end.

Every table lookup goes through ``_KnotTables``, a bucketed knot index
that reproduces ``np.interp`` bit for bit without its binary search.  A
transformed step pulls the particles back once: one lookup in the Theta
table for Theta^{-1}, then one shared grid index for Theta' and u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from kinsde.core import CoefficientSet, SimConfig
from kinsde.ergodicity import bootstrap_noise_floor, law_distances
from kinsde.integrators import alive_law, simulate_ensemble

LAMBDA_CAP = float(2**40)


class DegenerateDiscretizationError(ArithmeticError):
    """The tridiagonal system was singular at this resolution."""


class NotConvergedError(ArithmeticError):
    """Discrete residual too large relative to the right-hand side."""


class SmallnessNotAchievedError(ArithmeticError):
    """No lambda below the cap reached the requested smallness.

    Flags a coefficient outside the regime the transform expects at this
    resolution.
    """


class OutOfTransformDomainError(ValueError):
    """The transform cannot be applied: extrapolation beyond the solved
    interval was refused, or Theta is not a diffeomorphism on the grid."""


class _KnotTables:
    """``np.interp(y, x, f)`` for fixed, strictly increasing knots ``x`` and
    one or more value tables ``f``, equal to it bit for bit.

    The knot index ``j = searchsorted(x, y, 'right') - 1`` comes from
    buckets instead of a binary search.  The bucket of y,
    ``c(y) = floor((y - x[0]) * nb / span)`` clipped to [0, nb), is a
    monotone function of y in floating point, so a knot in a lower bucket
    lies below y and a knot in a higher bucket lies above it.  ``start[c]``
    is the last knot in a bucket below c, and at most ``steps`` knots share
    a bucket, so ``steps`` comparisons finish the index.  The bucket width
    is at most the smallest knot spacing, which keeps ``steps`` at 1 or 2
    unless the bucket count is capped.  The values use ``np.interp``'s own
    formula: ``f[j]`` at a knot, the end values at or beyond the ends, NaN
    for NaN.
    """

    def __init__(self, x: np.ndarray, *fs: np.ndarray):
        x = np.asarray(x, dtype=float)
        gaps = np.diff(x)
        if not (x.ndim == 1 and x.size >= 2 and np.all(gaps > 0.0)
                and np.isfinite(x[-1] - x[0])):
            raise ValueError("knots must be finite and strictly increasing")
        span = x[-1] - x[0]
        # the cap only bounds memory for tables with a tiny smallest gap
        nb = min(int(np.ceil(span / gaps.min())), 16 * x.size)
        self.x = x
        self.x0 = x[0]
        self.scale = nb / span
        self.top = float(nb - 1)
        # x with NaN past the last knot: x_next[j + 1] exists for j = n - 1,
        # and "NaN <= y" is false even for y = +inf
        self.x_next = np.append(x, np.nan)
        knot_bucket = self._bucket(x)
        self.start = np.searchsorted(knot_bucket, np.arange(nb)) - 1
        self.steps = int(np.bincount(knot_bucket).max())
        # the slopes np.interp computes, (f[j+1] - f[j]) / (x[j+1] - x[j])
        self.tables = [(f, np.diff(f) / gaps) for f in map(np.asarray, fs)]

    def _bucket(self, y: np.ndarray) -> np.ndarray:
        # fmax sends NaN to bucket 0; its value comes out NaN below anyway
        return np.fmin(np.fmax((y - self.x0) * self.scale, 0.0), self.top).astype(np.intp)

    def index(self, y: np.ndarray) -> np.ndarray:
        """``searchsorted(x, y, 'right') - 1`` (-1 below x[0] and for NaN)."""
        j = self.start[self._bucket(y)]
        for _ in range(self.steps):
            j += self.x_next[j + 1] <= y
        return j

    def __call__(self, y) -> list[np.ndarray]:
        """Each table interpolated at y, all from one knot index."""
        y = np.asarray(y, dtype=float)
        x = self.x
        j = np.clip(self.index(y), 0, x.size - 2)
        xj = x[j]
        dx = y - xj
        on_knot = y == xj
        below = y < x[0]
        above = y >= x[-1]
        out = []
        with np.errstate(invalid="ignore"):  # 0 * inf at y = +-inf, overwritten below
            for f, slope in self.tables:
                fj = f[j]
                v = np.where(on_knot, fj, slope[j] * dx + fj)
                v[below] = f[0]
                v[above] = f[-1]
                out.append(v)
        return out


@dataclass(frozen=True)
class ZvonkinSolution:
    """Resolvent solution with its diffeomorphism tables.

    Interpolation works on offset tables (u and -u against Theta-knots), so
    a zero solution gives Theta and its inverse as exact identities.
    """

    grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    lam: float
    residual: float

    @property
    def sup_bound(self) -> float:
        """||u||_inf + ||u'||_inf on the grid."""
        return float(np.max(np.abs(self.u)) + np.max(np.abs(self.du)))

    @cached_property
    def invertible(self) -> bool:
        """||u'|| < 1 on the grid and a strictly increasing Theta table."""
        return bool(float(np.max(np.abs(self.du))) < 1.0
                    and np.all(np.diff(self.theta_values) > 0.0))

    @cached_property
    def theta_values(self) -> np.ndarray:
        return self.grid + self.u

    @cached_property
    def _on_grid(self) -> _KnotTables:
        """u and u' against the grid."""
        return _KnotTables(self.grid, self.u, self.du)

    @cached_property
    def _on_theta(self) -> _KnotTables:
        """-u against the Theta table (the offset of Theta^{-1})."""
        return _KnotTables(self.theta_values, -self.u)

    def theta(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return y + self._on_grid(y)[0]

    def theta_prime(self, y) -> np.ndarray:
        return 1.0 + self._on_grid(y)[1]

    def u_at(self, y) -> np.ndarray:
        return self._on_grid(y)[0]

    def theta_inv(self, ty, clamp: bool = False, hits: list | None = None) -> np.ndarray:
        """Monotone piecewise-linear inverse; refuses extrapolation.

        With ``clamp=True`` out-of-table queries are clamped to the edge and
        counted through ``hits`` instead of raising.
        """
        if not self.invertible:
            raise OutOfTransformDomainError(
                "transform is not invertible (||u'|| >= 1 or Theta table not increasing)"
            )
        ty = np.asarray(ty, dtype=float)
        tv = self.theta_values
        out = (ty < tv[0]) | (ty > tv[-1])
        if np.any(out):
            if not clamp:
                raise OutOfTransformDomainError(
                    "out of transform domain: y outside Theta([-L, L])"
                )
            if hits is not None:
                hits.append(np.count_nonzero(out))
            ty = np.clip(ty, tv[0], tv[-1])
        return ty + self._on_theta(ty)[0]


def solve_resolvent_1d(
    b: Callable | float,
    sigma: Callable | float,
    lam: float,
    L: float,
    n: int,
) -> ZvonkinSolution:
    """Second-order central finite differences with Dirichlet u(+-L) = 0.

    ``b`` and ``sigma`` are scalar fields on R (callables on 1-D arrays or
    constants).  The discrete residual must come back below 1e-8 of the
    right-hand-side scale, which a direct tridiagonal solve guarantees
    unless the system is near singular.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if n < 5:
        raise ValueError("need at least 5 grid points")
    y = np.linspace(-L, L, n)
    dy = y[1] - y[0]
    b_vals = np.full(n, float(b)) if np.isscalar(b) else np.asarray(b(y), dtype=float)
    s_vals = np.full(n, float(sigma)) if np.isscalar(sigma) else np.asarray(sigma(y), dtype=float)
    if np.any(s_vals**2 <= 0):
        raise DegenerateDiscretizationError("sigma^2 must be positive on the grid")

    half_s2 = 0.5 * s_vals**2
    bi = b_vals[1:-1]
    si = half_s2[1:-1]
    lower = si / dy**2 - bi / (2.0 * dy)
    diag = -2.0 * si / dy**2 - lam
    upper = si / dy**2 + bi / (2.0 * dy)
    rhs = -bi

    ab = np.zeros((3, n - 2))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    from scipy.linalg import solve_banded  # here, so that importing the CLI skips scipy
    try:
        interior = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises rarely here
        raise DegenerateDiscretizationError(str(exc)) from exc
    if not np.all(np.isfinite(interior)):
        raise DegenerateDiscretizationError("tridiagonal solve produced non-finite values")

    u = np.zeros(n)
    u[1:-1] = interior

    resid = (
        si * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dy**2
        + bi * (u[2:] - u[:-2]) / (2.0 * dy)
        - lam * u[1:-1]
        - rhs
    )
    scale = max(1.0, float(np.max(np.abs(b_vals))))
    residual = float(np.max(np.abs(resid)))
    if residual > 1e-8 * scale:
        raise NotConvergedError(f"discrete residual {residual:.3e} above 1e-8 of RHS scale")

    du = np.empty(n)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * dy)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dy)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dy)
    d2u = np.zeros(n)
    d2u[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dy**2

    return ZvonkinSolution(grid=y, u=u, du=du, d2u=d2u, lam=lam, residual=residual)


def lambda_sweep(
    b: Callable | float,
    sigma: Callable | float,
    eps_target: float,
    L: float,
    n: int,
) -> ZvonkinSolution:
    """Double lambda from 1 until ||u|| + ||u'|| drops below the target."""
    if not (0.0 < eps_target < 1.0):
        raise ValueError("eps_target must lie in (0, 1)")
    lam = 1.0
    while lam <= LAMBDA_CAP:
        sol = solve_resolvent_1d(b, sigma, lam, L, n)
        if sol.sup_bound < eps_target:
            return sol
        lam *= 2.0
    raise SmallnessNotAchievedError(
        f"smallness not achieved: bound still >= {eps_target} at lambda cap {LAMBDA_CAP:g}"
    )


def transform_coefficients(
    sol: ZvonkinSolution,
    coeffs: CoefficientSet,
    clamp: bool = False,
    out_hits: list | None = None,
) -> CoefficientSet:
    """Coefficients of the transformed system in the new coordinate.

    The singular drift b is absorbed by the change of variables: the
    transformed system carries none.  Evaluation outside Theta([-L, L])
    refuses to extrapolate unless clamping is requested (the caller then
    accounts for the clamp hits).
    """
    if coeffs.d2 != 1:
        raise ValueError("transform requires d2 = 1")
    if not sol.invertible:
        raise OutOfTransformDomainError(
            "solution does not satisfy ||u'|| < 1 with a strictly increasing Theta table;"
            " not a diffeomorphism"
        )
    rt = np.max(np.abs(sol.theta_inv(sol.theta(sol.grid)) - sol.grid))
    if rt > 1e-8:
        raise OutOfTransformDomainError(f"inverse roundtrip error {rt:.3e} above 1e-8")

    lam = sol.lam
    bdu = float(np.max(np.abs(sol.du)))

    # step_arrays hands one y object to z1, drift_y and apply_sigma, and
    # simulate_ensemble never writes into y, so one pull-back per step serves
    # all three fields: it is kept for the ty object it was made from (the
    # reference held here keeps that object alive, so its id is not reused).
    last: list = [None, None]

    def back(ty):
        """(yb, Theta'(yb), u(yb)) for yb = Theta^{-1}(ty), as columns."""
        if last[0] is not ty:
            yb = sol.theta_inv(ty[:, 0], clamp=clamp, hits=out_hits)
            u, du = sol._on_grid(yb)
            last[:] = ty, (yb[:, None], 1.0 + du, u[:, None])
        return last[1]

    def z1t(t, x, ty):
        return coeffs.z1(t, x, back(ty)[0])

    def z2t(t, x, ty, law):
        yb, grad, u = back(ty)
        return grad[:, None] * coeffs.z2(t, x, yb, law) + lam * u

    if isinstance(coeffs.sigma, np.ndarray):
        base_sigma = coeffs.sigma

        def sigt(t, ty):
            grad = back(ty)[1]
            return grad[:, None, None] * base_sigma[None, :, :]
    else:
        def sigt(t, ty):
            yb, grad, _ = back(ty)
            return grad[:, None, None] * coeffs.sigma(t, yb)

    s_lo, s_hi = coeffs.sigma_bounds
    new_bounds = (s_lo * (1.0 + bdu), s_hi / max(1e-12, (1.0 - bdu) ** 2))
    return CoefficientSet(
        d1=coeffs.d1, d2=1, m=coeffs.m,
        z1=z1t, z2=z2t, b=None, sigma=sigt,
        sigma_bounds=new_bounds,
        measure_dependent=coeffs.measure_dependent,
        growth=coeffs.growth,
    )


class _TransformedInit:
    def __init__(self, init, sol: ZvonkinSolution):
        self.init = init
        self.sol = sol

    def sample(self, n):
        x0, y0 = self.init.sample(n)
        return x0, self.sol.theta(y0[:, 0])[:, None]


@dataclass(frozen=True)
class EquivalenceReport:
    tv: float
    noise_floor: float
    out_of_domain_fraction: float
    verdict: str  # equivalent | inconclusive
    solution: ZvonkinSolution  # carries lambda and ||u|| + ||u'||


def equivalence_experiment(
    coeffs: CoefficientSet,
    cfg: SimConfig,
    init,
    eps_target: float = 0.1,
    L: float = 12.0,
    n_grid: int = 4001,
    stream: int = 0,
) -> EquivalenceReport:
    """Simulate the original and the transformed systems and compare laws.

    Both runs consume identical noise (common random numbers).  The second
    run is mapped back through the inverse transform before histogramming.
    More than 0.1% of particles leaving the transform domain aborts the
    experiment; enlarge L.
    """
    if coeffs.d2 != 1:
        raise ValueError("experiment requires d2 = 1")
    if coeffs.b is None:
        b_scalar: Callable | float = 0.0
    else:
        b_scalar = lambda yy: np.asarray(coeffs.b(0.0, yy[:, None]))[:, 0]
    if isinstance(coeffs.sigma, np.ndarray):
        sigma_scalar: Callable | float = float(coeffs.sigma[0, 0])
    else:
        sigma_scalar = lambda yy: np.asarray(coeffs.sigma(0.0, yy[:, None]))[:, 0, 0]

    sol = lambda_sweep(b_scalar, sigma_scalar, eps_target, L, n_grid)
    hits: list = []
    transformed = transform_coefficients(sol, coeffs, clamp=True, out_hits=hits)

    ens_a = simulate_ensemble(cfg, coeffs, init, stream=stream)
    ens_b = simulate_ensemble(cfg, transformed, _TransformedInit(init, sol), stream=stream)

    y_back = sol.theta_inv(ens_b.y[:, 0], clamp=True, hits=hits)[:, None]
    out_frac = float(sum(hits)) / max(1, cfg.N * cfg.n_steps)
    if out_frac > 1e-3:
        raise OutOfTransformDomainError(
            f"experiment aborted: {out_frac:.2%} out-of-domain transform hits; enlarge L"
        )

    law_a = ens_a.law()
    law_b_back = alive_law(ens_b.x, y_back, ens_b.alive)
    tv = float(law_distances([law_a], [law_b_back], cfg.hist)[0])
    floor = bootstrap_noise_floor(law_a, cfg.hist, seed=cfg.seed)
    verdict = "equivalent" if tv < 3.0 * floor or tv == 0.0 else "inconclusive"
    return EquivalenceReport(
        tv=tv, noise_floor=floor, out_of_domain_fraction=out_frac, verdict=verdict,
        solution=sol,
    )
