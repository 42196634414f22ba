"""Time stepping, ensembles, Girsanov reweighting, exponential-moment estimation.

Randomness is counter-based: the Gaussian block for step k of a run is a
pure function of (seed, stream, k), so a particle's trajectory is a
deterministic function of (seed, stream, its index, config).  Reruns are
bit-exact on one machine, and two runs sharing (seed, stream) consume
identical noise (common random numbers).
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from kinsde.core import CoefficientSet, EmpiricalLaw, SimConfig, validate_config

BLOWUP_THRESHOLD = 1e12
UNSTABLE_DEAD_FRACTION = 1e-3

_PURPOSE_STEP = 0
_PURPOSE_BOOT = 2

SNAPSHOT_FORMAT = 1


class DegenerateReweightingError(ArithmeticError):
    """Effective sample size of the Girsanov weights collapsed below 1% of N."""

    def __init__(self, ess: float, n: int):
        self.ess = ess
        self.n = n
        super().__init__(f"degenerate reweighting: effective sample size {ess:.1f} < 1% of {n}")


def _key(seed: int, purpose: int, stream: int, index: int) -> np.ndarray:
    hi = (purpose << 60) | ((stream & 0xFFFFF) << 40) | (index & 0xFFFFFFFFFF)
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, hi], dtype=np.uint64)


def _philox(seed: int, purpose: int, stream: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, purpose, stream, index)))


# One step-noise generator per thread.  Every call overwrites its whole state,
# so no call sees what an earlier one drew.
_step_rng = threading.local()


def step_normals(seed: int, stream: int, step: int, n: int, m: int) -> np.ndarray:
    """Standard-normal block for one step; row i belongs to particle i.

    Equal to ``_philox(seed, _PURPOSE_STEP, stream, step).standard_normal((n, m))``,
    but building a keyed ``Philox`` costs a ``SeedSequence`` (and an
    ``os.urandom`` read) per call, so the thread's generator is re-keyed
    instead: its fresh state (counter 0, empty buffer) with the step's key.
    """
    rng = _step_rng
    if not hasattr(rng, "gen"):
        rng.gen = np.random.Generator(np.random.Philox(key=0))
        rng.fresh = rng.gen.bit_generator.state
    rng.fresh["state"]["key"] = _key(seed, _PURPOSE_STEP, stream, step)
    rng.gen.bit_generator.state = rng.fresh
    return rng.gen.standard_normal((n, m))


def bootstrap_rng(seed: int, stream: int = 0) -> np.random.Generator:
    return _philox(seed, _PURPOSE_BOOT, stream, 0)


# --- the step scheme --------------------------------------------------------------

def _tame(v: np.ndarray, h: float) -> np.ndarray:
    mag = np.sqrt(np.sum(v * v, axis=1, keepdims=True))
    return v / (1.0 + h * mag)


def step_arrays(
    coeffs: CoefficientSet,
    t: float,
    h: float,
    x: np.ndarray,
    y: np.ndarray,
    law: EmpiricalLaw | None,
    dW: np.ndarray,
    tamed: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler-Maruyama step of a particle block with caller-supplied increments.

    ``tamed`` replaces each drift vector v by v / (1 + h |v|).  Non-finite
    results are returned as they are; the ensemble loop masks them.
    """
    fx = coeffs.z1(t, x, y)
    fy = coeffs.drift_y(t, x, y, law)
    if tamed:
        fx = _tame(fx, h)
        fy = _tame(fy, h)
    return x + h * fx, y + h * fy + coeffs.apply_sigma(t, y, dW)


# --- ensembles --------------------------------------------------------------------

@dataclass
class Ensemble:
    """N trajectories advanced under one coefficient set.

    Dead particles (a coordinate beyond the blowup threshold or non-finite)
    are frozen at their last finite state and excluded from laws; their
    count is reported, never silently dropped.
    """

    seed: int
    stream: int
    scheme: str
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    alive: np.ndarray
    initial_x: np.ndarray
    initial_y: np.ndarray
    record_times: np.ndarray | None = None
    records: list[EmpiricalLaw] | None = None
    paths_x: np.ndarray | None = None
    paths_y: np.ndarray | None = None
    increments: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_dead(self) -> int:
        return int(self.n - np.count_nonzero(self.alive))

    @property
    def unstable(self) -> bool:
        return self.n_dead > UNSTABLE_DEAD_FRACTION * self.n

    def law(self) -> EmpiricalLaw:
        if self.n_dead == 0:
            return EmpiricalLaw(self.x, self.y)
        return EmpiricalLaw(self.x[self.alive], self.y[self.alive])


def _resolve_record_indices(cfg: SimConfig, record_times) -> np.ndarray | None:
    if record_times is None:
        return None
    req = np.atleast_1d(np.asarray(record_times, dtype=float))
    idx = np.unique(np.clip(np.round(req / cfg.h).astype(int), 0, cfg.n_steps))
    return idx


def simulate_ensemble(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    init,
    law: Callable | None = None,
    stream: int = 0,
    store_paths: bool = False,
    store_increments: bool = False,
    record_times: Sequence[float] | None = None,
    observe: Callable | None = None,
) -> Ensemble:
    """Advance N paths of the system from ``init.sample(N)`` to the horizon.

    ``law(k, t, x, y, alive)`` returns the measure fed to z2 at step k,
    from the states at t_k: a frozen flow's law at t_k gives the decoupled
    dynamics the fixed-point iteration acts on, the ensemble's own law
    gives the interacting particle system.  Without it, measure-dependent
    coefficients see their reference measure.

    ``observe(k, t, x, y, dW)`` sees the state at t_k before step k, with
    that step's increments, for k = 0 .. K - 1, and once more at k = K
    with ``dW = None``.  Neither callable may write into its arrays.
    """
    bad = validate_config(cfg, coeffs)
    if bad:
        raise ValueError("invalid configuration: " + "; ".join(bad))
    x0, y0 = init.sample(cfg.N)
    record_idx = _resolve_record_indices(cfg, record_times)
    n, h, K = cfg.N, cfg.h, cfg.n_steps
    tamed = cfg.scheme == "tamed"
    x, y = x0, y0  # never written into: each step makes new arrays
    alive = np.ones(n, dtype=bool)

    paths_x = paths_y = increments = None
    if store_paths:
        paths_x = np.empty((K + 1, n, cfg.d1))
        paths_y = np.empty((K + 1, n, cfg.d2))
        paths_x[0], paths_y[0] = x, y
    if store_increments:
        increments = np.empty((K, n, cfg.m))

    records: list[EmpiricalLaw] | None = None
    rec_times = None
    if record_idx is not None:
        records = []
        rec_times = record_idx * h
        if 0 in record_idx:
            records.append(EmpiricalLaw(x[alive], y[alive]))
    rec_set = set(record_idx.tolist()) if record_idx is not None else set()

    sqh = math.sqrt(h)
    n_alive = n
    for k in range(K):
        t = k * h
        law_k = law(k, t, x, y, alive) if law is not None else None
        dW = sqh * step_normals(cfg.seed, stream, k, n, cfg.m)
        if store_increments:
            increments[k] = dW
        if observe is not None:
            observe(k, t, x, y, dW)

        # Death mask.  NaN fails every comparison, so it marks a row dead as
        # inf does.  One whole-array test per step is far cheaper than the
        # per-row reductions, which run only when some value fails it.
        with np.errstate(over="ignore", invalid="ignore"):
            nx, ny = step_arrays(coeffs, t, h, x, y, law_k, dW, tamed)
            if not (np.abs(nx).max() < BLOWUP_THRESHOLD
                    and np.abs(ny).max() < BLOWUP_THRESHOLD):
                alive = (alive & (np.max(np.abs(nx), axis=1) < BLOWUP_THRESHOLD)
                         & (np.max(np.abs(ny), axis=1) < BLOWUP_THRESHOLD))
                n_alive = int(np.count_nonzero(alive))
        if n_alive == n:
            x, y = nx, ny
        else:
            x = np.where(alive[:, None], nx, x)
            y = np.where(alive[:, None], ny, y)

        if store_paths:
            paths_x[k + 1], paths_y[k + 1] = x, y
        if (k + 1) in rec_set:
            records.append(EmpiricalLaw(x[alive], y[alive]))
    if observe is not None:
        observe(K, K * h, x, y, None)

    return Ensemble(
        seed=cfg.seed,
        stream=stream,
        scheme=cfg.scheme,
        times=cfg.times(),
        x=x,
        y=y,
        alive=alive,
        initial_x=x0,
        initial_y=y0,
        record_times=rec_times,
        records=records,
        paths_x=paths_x,
        paths_y=paths_y,
        increments=increments,
    )


# --- Girsanov reweighting ---------------------------------------------------------

@dataclass(frozen=True)
class GirsanovResult:
    """Reweighted terminal law with martingale and divergence diagnostics."""

    law: EmpiricalLaw
    log_weights: np.ndarray
    mean_weight: float
    ess: float
    pinsker_tv_bound: float


def girsanov_log_weights(ens: Ensemble, xi: Callable) -> np.ndarray:
    """log R_T per particle along stored paths.

    The stochastic integral <xi, dW> uses the left endpoint (Ito); the
    compensator integral of |xi|^2 uses the trapezoid rule.
    """
    if ens.paths_x is None or ens.increments is None:
        raise ValueError("girsanov reweighting needs store_paths and store_increments")
    K = ens.times.size - 1
    h = float(ens.times[1] - ens.times[0])
    n = ens.x.shape[0]
    ito = np.zeros(n)
    sq_prev = None
    comp = np.zeros(n)
    for k in range(K + 1):
        t = ens.times[k]
        xi_k = np.asarray(xi(t, ens.paths_x[k], ens.paths_y[k]), dtype=float)
        sq = np.sum(xi_k * xi_k, axis=1)
        if k < K:
            ito += np.sum(xi_k * ens.increments[k], axis=1)
        if sq_prev is not None:
            comp += 0.5 * h * (sq_prev + sq)
        sq_prev = sq
    return ito - 0.5 * comp


def girsanov_weighted_law(ens: Ensemble, xi: Callable) -> GirsanovResult:
    """Importance-sampling estimate of the drift-shifted law.

    Weighting the reference ensemble by R_T = exp(int <xi, dW> - 1/2 int |xi|^2)
    reproduces the law of the dynamics with drift shifted by sigma * xi.
    Reports the mean weight (1 in expectation), the effective sample size,
    and the total-variation bound sqrt(2 E[R log R]) between the weighted
    and unweighted laws.
    """
    logw = girsanov_log_weights(ens, xi)
    ok = ens.alive
    w = np.exp(logw[ok])
    n = int(np.count_nonzero(ok))
    total = math.fsum(w.tolist())
    ess = total**2 / math.fsum((w * w).tolist())
    if ess < 0.01 * n:
        raise DegenerateReweightingError(ess, n)
    mean_w = total / n
    rel_ent = max(0.0, math.fsum((w * logw[ok]).tolist()) / n)
    law = EmpiricalLaw(ens.x[ok], ens.y[ok], weights=w)
    return GirsanovResult(
        law=law,
        log_weights=logw,
        mean_weight=mean_w,
        ess=ess,
        pinsker_tv_bound=math.sqrt(2.0 * rel_ent),
    )


def constant_shift_xi(c) -> Callable:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return lambda t, x, y: np.broadcast_to(c, (x.shape[0], c.size))


def drift_difference_xi(coeffs: CoefficientSet, delta_z2: Callable) -> Callable:
    """xi = sigma* (sigma sigma*)^-1 (y) applied to a z2 difference field."""
    if isinstance(coeffs.sigma, np.ndarray):
        mat = coeffs.sigma
        proj = mat.T @ np.linalg.inv(mat @ mat.T)

        def xi(t, x, y):
            return delta_z2(t, x, y) @ proj.T

        return xi

    def xi_cb(t, x, y):
        sig = coeffs.sigma(t, y)
        a = np.einsum("nij,nkj->nik", sig, sig)
        proj = np.einsum("nji,njk->nik", sig, np.linalg.inv(a))
        return np.einsum("nik,ni->nk", proj, delta_z2(t, x, y))

    return xi_cb


# --- Khasminskii-type exponential moment estimate ---------------------------------

@dataclass(frozen=True)
class KhasminskiiResult:
    estimate: float
    ci_lo: float
    ci_hi: float
    diverged: bool
    integrals: np.ndarray


def khasminskii_estimate(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    f: Callable,
    init,
    stream: int = 0,
) -> KhasminskiiResult:
    """Monte Carlo estimate of E[exp(int_0^T |f_t(Y_t)|^2 dt)] with bootstrap CI.

    The path integral uses the trapezoid rule accumulated online.  Exponent
    overflow is reported as a +inf estimate (finite-sample divergence
    evidence), not an exception.
    """
    acc = np.zeros(cfg.N)
    prev = {"g": None}

    def on_state(k, t, x, y, dW):
        g = np.asarray(f(t, y), dtype=float) ** 2
        if prev["g"] is not None:
            np.add(acc, 0.5 * cfg.h * (prev["g"] + g), out=acc)
        prev["g"] = g

    ens = simulate_ensemble(cfg, coeffs, init, stream=stream, observe=on_state)
    integrals = acc[ens.alive]
    with np.errstate(over="ignore"):
        vals = np.exp(integrals)
    est = float(np.mean(vals))
    diverged = not np.isfinite(est)
    if diverged:
        return KhasminskiiResult(math.inf, math.nan, math.inf, True, integrals)
    rng = bootstrap_rng(cfg.seed, stream)
    n_boot = 400
    boots = np.empty(n_boot)
    for i in range(n_boot):
        idx = rng.integers(0, vals.size, vals.size)
        boots[i] = np.mean(vals[idx])
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return KhasminskiiResult(est, float(lo), float(hi), False, integrals)


# --- snapshot persistence ---------------------------------------------------------

def save_snapshot(
    base: str | Path,
    ens: Ensemble,
    config_hash: str = "",
    with_increments: bool = False,
) -> tuple[Path, Path]:
    """Write a binary columnar snapshot plus a JSON sidecar.

    Layout: little-endian float64 x block (n*d1), y block (n*d2), weights (n),
    then optionally the increments block (K*n*m).
    """
    base = Path(base)
    law = ens.law()
    blocks = [law.x, law.y, law.weights]
    has_inc = with_increments and ens.increments is not None
    if has_inc:
        blocks.append(ens.increments)
    bin_path = base.with_suffix(".bin")
    with open(bin_path, "wb") as fh:
        for blk in blocks:
            fh.write(np.ascontiguousarray(blk, dtype="<f8").tobytes())
    sidecar = {
        "format": SNAPSHOT_FORMAT,
        "config_hash": config_hash,
        "seed": ens.seed,
        "stream": ens.stream,
        "time": ens.times[-1],
        "n": law.n,
        "d1": law.x.shape[1],
        "d2": law.y.shape[1],
        "n_dead": ens.n_dead,
        "unstable": ens.unstable,
        "has_increments": bool(has_inc),
        "increments_shape": list(ens.increments.shape) if has_inc else None,
    }
    json_path = base.with_suffix(".json")
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return bin_path, json_path


def load_snapshot(base: str | Path) -> tuple[EmpiricalLaw, dict]:
    base = Path(base)
    meta = json.loads(base.with_suffix(".json").read_text())
    raw = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    n, d1, d2 = meta["n"], meta["d1"], meta["d2"]
    ofs = 0
    x = raw[ofs:ofs + n * d1].reshape(n, d1).copy(); ofs += n * d1
    y = raw[ofs:ofs + n * d2].reshape(n, d2).copy(); ofs += n * d2
    w = raw[ofs:ofs + n].copy(); ofs += n
    law = EmpiricalLaw(x, y, w)
    if meta.get("has_increments"):
        shape = tuple(meta["increments_shape"])
        meta["increments"] = raw[ofs:ofs + int(np.prod(shape))].reshape(shape).copy()
    return law, meta
