"""Numeric certification of Lyapunov drift conditions on sampled domains.

A check on a compact domain is evidence, not proof: reports say
"certified on domain D" verbatim.  Sampling is log-radial so the large
radius region, where the rate function must dominate the drift terms, is
actually exercised; uniform boxes undersample that tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kinsde.core import CoefficientSet, InputError, NumericError, _row_norm
from kinsde.fields import LyapunovV, PhiFamily


class CertificationError(NumericError):
    """No feasible constants on the sampled domain."""


@dataclass(frozen=True)
class LogRadialSamples:
    """Log-spaced radial shells times seeded random directions."""

    r_min: float = 0.05
    r_max: float = 50.0
    n_radii: int = 24
    n_dirs: int = 16
    seed: int = 0

    def points(self, d1: int, d2: int) -> np.ndarray:
        d = d1 + d2
        pts = _shells(np.geomspace(self.r_min, self.r_max, self.n_radii), self.n_dirs, d, self.seed)
        return np.concatenate([np.zeros((1, d)), pts], axis=0)

    def describe(self) -> str:
        return (
            f"log-radial lattice, radii {self.r_min:g}..{self.r_max:g} "
            f"({self.n_radii} shells x {self.n_dirs} directions)"
        )

    def refined(self) -> "LogRadialSamples":
        """Twice the shells and twice the directions on the same radii range."""
        return LogRadialSamples(self.r_min, self.r_max,
                                self.n_radii * 2, self.n_dirs * 2, self.seed)


def _shells(radii: np.ndarray, n_dirs: int, d: int, seed: int) -> np.ndarray:
    """Each radius times the same ``n_dirs`` unit directions of R^d, shell by shell:
    normalised standard normals from the Philox generator keyed by ``seed``."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    dirs = rng.standard_normal((n_dirs, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)


def shell_offsets(d2: int, eps: float, m_shell: int = 32, seed: int = 1) -> np.ndarray:
    """Probe offsets covering the closed eps-ball around a velocity point.

    d2 = 1 uses an even lattice with both endpoints; higher dimensions use
    seeded directions at three radii plus the center.
    """
    if d2 == 1:
        return np.linspace(-eps, eps, m_shell).reshape(-1, 1)
    offs = _shells(np.array([eps / 2.0, 0.75 * eps, eps]), max(1, (m_shell - 1) // 3), d2, seed)
    return np.concatenate([np.zeros((1, d2)), offs], axis=0)


def shell_norms(V: LyapunovV, x: np.ndarray, y: np.ndarray, offs: np.ndarray):
    """||d_x d_y V||, |d_y V| and ||d_y^2 V|| at (x_i, y_i + off_j), each (n, m).

    x is (n, d1), y is (n, d2), offs is (m, d2).  With g and g2 of
    :meth:`LyapunovV.powers`, the spectral norms are |g2| |x| |y| and, from the
    eigenvalues g (d2 - 1 times) and g + g2 |y|^2, |g + g2 |y|^2| when d2 = 1 and
    max(|g|, |g + g2 |y|^2|) when d2 >= 2.
    """
    ys = y[:, None, :] + offs[None, :, :]
    y2 = np.sum(ys * ys, axis=2)
    x2 = np.sum(x * x, axis=1)[:, None]
    _, g, g2 = V.powers(1.0 + (x2 + y2))
    ny = np.sqrt(y2)
    hess_xy = np.abs(g2) * np.sqrt(x2) * ny
    hess_yy = np.abs(g + g2 * y2)
    if y.shape[1] >= 2:
        hess_yy = np.maximum(np.abs(g), hess_yy)
    return hess_xy, np.abs(g) * ny, hess_yy


def drift_condition_lhs(
    coeffs: CoefficientSet,
    V: LyapunovV,
    eps: float,
    points: np.ndarray,
    m_shell: int = 32,
) -> np.ndarray:
    """Left side of the drift condition at each sampled phase point, in one pass.

    eps * sup over the eps-shell of {|Z1| ||d_x d_y V|| + |Z2| (|d_y V| + ||d_y^2 V||)}
    plus the inner products <Z1, d_x V> + <Z2, d_y V> at the point itself.
    The drift magnitudes are evaluated at the point, not on the shell; the
    shell applies to the derivative factors only.  A point where V leaves the
    float range gets an infinite left side, so it is flagged.  The drifts are
    called once on the whole sample, so a drift that raises ArithmeticError
    flags every point; any other exception is a bug and escapes.
    """
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    x, y = points[:, :coeffs.d1], points[:, coeffs.d1:]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite left side gets flagged
        try:
            z1 = np.asarray(coeffs.z1(0.0, x, y))
            z2 = np.asarray(coeffs.z2(0.0, x, y, None))
        except ArithmeticError:
            return np.full(points.shape[0], math.inf)
        hess_xy, grad_y, hess_yy = shell_norms(V, x, y, shell_offsets(coeffs.d2, eps, m_shell))
        v, g, _ = V.powers(1.0 + (np.sum(x * x, axis=1) + np.sum(y * y, axis=1)))
        n1, n2 = _row_norm(z1, keepdims=True), _row_norm(z2, keepdims=True)
        shell_max = np.max(n1 * hess_xy + n2 * (grad_y + hess_yy), axis=1)
        g = g[:, None]  # d_x V = g x and d_y V = g y
        out = eps * shell_max + np.sum(z1 * (g * x), axis=1) + np.sum(z2 * (g * y), axis=1)
    out[np.isinf(v)] = math.inf
    return out


@dataclass(frozen=True)
class DriftConditionReport:
    points: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margins: np.ndarray
    flagged: list
    domain: str
    verdict: str  # holds | fails

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margins))

    @property
    def worst_point(self) -> np.ndarray:
        return self.points[int(np.argmin(self.margins))]

    def summary(self) -> str:
        if self.verdict == "holds":
            return f"certified on domain {self.domain}"
        return f"fails on domain {self.domain} at {self.worst_point.tolist()}"


def check_drift_condition(
    coeffs: CoefficientSet,
    V: LyapunovV,
    phi: PhiFamily,
    K: float,
    eps: float,
    samples: LogRadialSamples,
) -> DriftConditionReport:
    """Pointwise margins of LHS <= K - Phi(V) on the sampled domain.

    A point whose left side overflows or is not a number is flagged rather
    than skipped; a flagged point blocks a "holds" verdict.
    """
    pts = samples.points(coeffs.d1, coeffs.d2)
    return _drift_report(V, phi, K, samples, pts, drift_condition_lhs(coeffs, V, eps, pts))


def _drift_report(V: LyapunovV, phi: PhiFamily, K: float, samples: LogRadialSamples,
                  pts: np.ndarray, lhs: np.ndarray) -> DriftConditionReport:
    """Margins K - (LHS + Phi(V)), the sum whose max is K_min, and the verdict; a point
    with a non-finite left side is flagged, and a flagged point or a margin that is not
    a number >= 0 fails it."""
    flagged = np.flatnonzero(~np.isfinite(lhs)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Phi(V) fails the margin
        phiv = np.asarray(phi(V.value_points(pts)))
        rhs = K - phiv
        margins = K - (lhs + phiv)
    ok = not flagged and bool(np.all(margins >= 0.0))
    return DriftConditionReport(
        points=pts, lhs=lhs, rhs=rhs, margins=margins, flagged=flagged,
        domain=samples.describe(),
        verdict="holds" if ok else "fails",
    )


@dataclass(frozen=True)
class ConstantSearchResult:
    c0: float
    K: float
    report: DriftConditionReport


def search_constants(
    coeffs: CoefficientSet,
    V: LyapunovV,
    phi_kind: str,
    eps: float,
    samples: LogRadialSamples,
    beta: float | None = None,
    c0_bracket: tuple[float, float] = (1e-6, 1e3),
    k_cap: float = math.inf,
) -> ConstantSearchResult:
    """Largest c0 whose drift condition is certifiable with K <= k_cap.

    For fixed c0 the smallest workable constant is K_min(c0) = max over the
    sample of LHS + Phi_c0(V); it grows with c0, so feasibility is monotone
    and bisection applies.  Without a K cap every c0 is feasible and the
    bracket top is returned with its boundary K.  The report reuses the
    left side computed for the search; points where it is not finite are
    flagged.  A left side that is not a number anywhere certifies nothing
    and raises :class:`CertificationError`.
    """
    if math.isnan(k_cap):  # it would fail every comparison and certify the bracket floor
        raise InputError("k_cap must be a number or inf, got nan")
    pts = samples.points(coeffs.d1, coeffs.d2)
    lhs = drift_condition_lhs(coeffs, V, eps, pts)
    with np.errstate(over="ignore"):  # V overflows where lhs is flagged
        w = np.asarray(PhiFamily(phi_kind, 1.0, beta)(V.value_points(pts)))

    def k_min(c0: float) -> float:  # Phi_c0(V) = c0 Phi_1(V) bit for bit, for both kinds
        with np.errstate(over="ignore"):  # an overflowing Phi(V) makes K infinite
            return float(np.max(lhs + c0 * w))

    lo, hi = c0_bracket
    k_lo = k_min(lo)
    if math.isnan(k_lo):  # every K_min is nan then, and would fail every comparison
        raise CertificationError(f"K_min is nan: the left side is not a number at "
                                 f"{int(np.count_nonzero(np.isnan(lhs)))} sample points")
    if k_lo > k_cap:
        raise CertificationError("condition not certifiable on this domain")
    if k_min(hi) <= k_cap:
        best = hi
    else:
        flo, fhi = lo, hi
        for _ in range(80):
            mid = math.sqrt(flo * fhi)  # bisect in log scale, c0 spans decades
            if k_min(mid) <= k_cap:
                flo = mid
            else:
                fhi = mid
        best = flo
    K = k_min(best)
    report = _drift_report(V, PhiFamily(phi_kind, best, beta), K, samples, pts, lhs)
    return ConstantSearchResult(c0=best, K=K, report=report)

