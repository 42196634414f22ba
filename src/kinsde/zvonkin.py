"""One-dimensional Zvonkin change of variables for the noisy block.

Solves the resolvent equation (1/2) sigma sigma* u'' + b u' - lam u = -b on a
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

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from kinsde.core import (CloudInit, CoefficientSet, EmpiricalLaw, InputError, MeasureFlow,
                         NumericError, SimConfig, _row_norm)
from kinsde.ergodicity import compare_flows
from kinsde.integrators import alive_law, simulate_ensemble

LAMBDA_CAP = float(2**40)


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

    def theta_inv(self, ty, hits: list | None = None) -> np.ndarray:
        """Monotone piecewise-linear inverse; refuses extrapolation.

        Given a ``hits`` list, out-of-table queries are clamped to the edge
        and their count is appended to it instead of raising: nothing is
        clamped uncounted.
        """
        if not self.invertible:
            raise NumericError(
                "transform is not invertible (||u'|| >= 1 or Theta table not increasing)"
            )
        ty = np.asarray(ty, dtype=float)
        tv = self.theta_values
        out = (ty < tv[0]) | (ty > tv[-1])
        if np.any(out):
            if hits is None:
                raise NumericError(
                    "out of transform domain: y outside Theta([-L, L])"
                )
            hits.append(np.count_nonzero(out))
            ty = np.clip(ty, tv[0], tv[-1])
        return ty + self._on_theta(ty)[0]


def _solve_tridiagonal(dl: list, d: list, du: list, b: list) -> list:
    """x with A x = b for the tridiagonal A with sub-, main and super-diagonals
    ``dl``, ``d`` and ``du``, by LAPACK ``dgtsv``'s steps in its order.

    Gaussian elimination swaps rows i and i + 1 when |dl[i]| > |d[i]|, and
    back substitution keeps the second super-diagonal that a swap fills in,
    so on Python floats the result equals ``dgtsv``'s (and
    ``scipy.linalg.solve_banded((1, 1), ...)``'s) bit for bit.  The lists are
    overwritten.  A zero pivot raises ``NumericError``, where ``dgtsv`` returns
    NaN or fails.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise NumericError(f"tridiagonal solve: zero pivot in row {i + 1}")
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:  # row interchange; dl[i] becomes the fill-in above du[i + 1]
            if dl[i] == 0.0:  # d[i] is NaN: dgtsv pivots on this 0 and returns NaN
                raise NumericError(f"tridiagonal solve: zero pivot in row {i + 1}")
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise NumericError(f"tridiagonal solve: zero pivot in row {n}")
    b[n - 1] /= d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def solve_resolvent_1d(
    b: Callable | float,
    sigma: Callable | float,
    lam: float,
    L: float,
    n: int,
) -> ZvonkinSolution:
    """Second-order central finite differences with Dirichlet u(+-L) = 0.

    ``b`` and ``sigma`` are scalar fields on R (callables on 1-D arrays or
    constants).  The tridiagonal system is solved by ``_solve_tridiagonal``,
    an exact port of LAPACK ``dgtsv``.  The discrete residual must come back
    below 1e-8 of the right-hand-side scale, which a direct tridiagonal solve
    guarantees unless the system is near singular.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if n < 5:
        raise InputError("need at least 5 grid points")
    y = np.linspace(-L, L, n)
    dy = y[1] - y[0]
    with np.errstate(over="ignore"):  # |y|^2 or dy^2 past the float range: their terms round to 0
        b_vals = np.full(n, float(b)) if np.isscalar(b) else np.asarray(b(y), dtype=float)
        dy2 = dy**2
    if dy2 < sys.float_info.min:
        raise InputError(f"grid step {dy!r} too small: its square underflows; widen L or lower n")
    s_vals = np.full(n, float(sigma)) if np.isscalar(sigma) else np.asarray(sigma(y), dtype=float)
    if np.any(s_vals**2 <= 0):
        raise NumericError("sigma^2 must be positive on the grid")

    half_s2 = 0.5 * s_vals**2
    bi = b_vals[1:-1]
    si = half_s2[1:-1]
    lower = si / dy2 - bi / (2.0 * dy)
    diag = -2.0 * si / dy2 - lam
    upper = si / dy2 + bi / (2.0 * dy)
    rhs = -bi

    interior = np.array(_solve_tridiagonal(lower[1:].tolist(), diag.tolist(),
                                           upper[:-1].tolist(), rhs.tolist()))
    if not np.all(np.isfinite(interior)):
        raise NumericError("tridiagonal solve produced non-finite values")

    u = np.zeros(n)
    u[1:-1] = interior

    resid = (
        si * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dy2
        + bi * (u[2:] - u[:-2]) / (2.0 * dy)
        - lam * u[1:-1]
        - rhs
    )
    scale = max(1.0, float(np.max(np.abs(b_vals))))
    residual = float(np.max(np.abs(resid)))
    if residual > 1e-8 * scale:
        raise NumericError(f"discrete residual {residual:.3e} above 1e-8 of RHS scale")

    du = np.empty(n)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * dy)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dy)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dy)
    d2u = np.zeros(n)
    d2u[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dy2

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
        raise InputError("eps_target must lie in (0, 1)")
    lam = 1.0
    while lam <= LAMBDA_CAP:
        sol = solve_resolvent_1d(b, sigma, lam, L, n)
        if sol.sup_bound < eps_target:
            return sol
        lam *= 2.0
    raise NumericError(
        f"smallness not achieved: bound still >= {eps_target} at lambda cap {LAMBDA_CAP:g}"
    )


def transform_coefficients(
    sol: ZvonkinSolution,
    coeffs: CoefficientSet,
    hits: list | None = None,
) -> CoefficientSet:
    """Coefficients of the transformed system in the new coordinate.

    The singular drift b is absorbed by the change of variables: the
    transformed system carries none.  Evaluation outside Theta([-L, L])
    refuses to extrapolate unless a ``hits`` list is given, which then counts
    the clamps (``ZvonkinSolution.theta_inv``).
    """
    if coeffs.d2 != 1:
        raise InputError("transform requires d2 = 1")
    if not sol.invertible:
        raise NumericError(
            "solution does not satisfy ||u'|| < 1 with a strictly increasing Theta table;"
            " not a diffeomorphism"
        )
    rt = np.max(np.abs(sol.theta_inv(sol.theta(sol.grid)) - sol.grid))
    if rt > 1e-8:
        raise NumericError(f"inverse roundtrip error {rt:.3e} above 1e-8")

    lam = sol.lam

    # step_arrays hands one y object to z1, drift_y and apply_sigma, and
    # simulate_ensemble never writes into y, so one pull-back per step serves
    # all three fields: it is kept for the ty object it was made from (the
    # reference held here keeps that object alive, so its id is not reused).
    last: list = [None, None]

    def back(ty):
        """(yb, Theta'(yb), u(yb)) for yb = Theta^{-1}(ty), as columns."""
        if last[0] is not ty:
            yb = sol.theta_inv(ty[:, 0], hits=hits)
            u, du = sol._on_grid(yb)
            last[:] = ty, (yb[:, None], 1.0 + du, u[:, None])
        return last[1]

    def z1t(t, x, ty):
        return coeffs.z1(t, x, back(ty)[0])

    def z2t(t, x, ty, law):
        yb, grad, u = back(ty)
        return grad[:, None] * coeffs.z2(t, x, yb, law) + lam * u

    def sigt(t, ty):
        yb, grad, _ = back(ty)
        return grad[:, None, None] * coeffs.sigma_at(t, yb)

    return CoefficientSet(d1=coeffs.d1, d2=1, m=coeffs.m, z1=z1t, z2=z2t, b=None, sigma=sigt,
                          growth=coeffs.growth)


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
) -> EquivalenceReport:
    """Simulate the original and the transformed systems and compare laws.

    Both runs consume identical noise (common random numbers).  The second
    run is mapped back through the inverse transform before histogramming.
    More than 0.1% of particles leaving the transform domain aborts the
    experiment; enlarge L.
    """
    if coeffs.d2 != 1:
        raise InputError("experiment requires d2 = 1")
    if coeffs.b is None:
        b_scalar: Callable | float = 0.0
    else:
        b_scalar = lambda yy: np.asarray(coeffs.b(0.0, yy[:, None]))[:, 0]
    # the resolvent's second-order coefficient is (1/2) sigma sigma*, so its
    # scalar sigma is the row norm sqrt(sigma sigma*); for m = 1 that is |sigma|
    sigma_scalar = lambda yy: np.broadcast_to(
        _row_norm(coeffs.sigma_at(0.0, yy[:, None]))[..., 0], yy.shape)

    sol = lambda_sweep(b_scalar, sigma_scalar, eps_target, L, n_grid)
    hits: list = []
    transformed = transform_coefficients(sol, coeffs, hits=hits)

    ens_a = simulate_ensemble(cfg, coeffs, init, record_times=[cfg.T])
    x0, y0 = init.sample(cfg.N)
    init_b = CloudInit(EmpiricalLaw(x0, sol.theta(y0[:, 0])[:, None]))  # init mapped by Theta
    ens_b = simulate_ensemble(cfg, transformed, init_b)

    y_back = sol.theta_inv(ens_b.y[:, 0], hits=hits)[:, None]
    out_frac = float(sum(hits)) / max(1, cfg.N * cfg.n_steps)
    if out_frac > 1e-3:
        raise NumericError(
            f"experiment aborted: {out_frac:.2%} out-of-domain transform hits; enlarge L"
        )

    back = MeasureFlow(ens_a.flow.times, [alive_law(ens_b.x, y_back, ens_b.alive)])
    series = compare_flows(ens_a.flow, back, cfg.hist, cfg.seed)
    tv, floor = float(series.tv[0]), series.noise_floor
    verdict = "equivalent" if tv < 3.0 * floor or tv == 0.0 else "inconclusive"
    return EquivalenceReport(
        tv=tv, noise_floor=floor, out_of_domain_fraction=out_frac, verdict=verdict,
        solution=sol,
    )
