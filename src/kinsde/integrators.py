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

from kinsde.core import (CoefficientSet, EmpiricalLaw, InputError, MeasureFlow, NumericError,
                         SimConfig, validate_config)

BLOWUP_THRESHOLD = 1e12
UNSTABLE_DEAD_FRACTION = 1e-3

_PURPOSE_STEP = 0
_PURPOSE_BOOT = 2

SNAPSHOT_FORMAT = 1


class DegenerateReweightingError(NumericError):
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


def step_normals(seed: int, stream: int, step: int, n: int, m: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal block for one step; row i belongs to particle i.

    Equal to ``_philox(seed, _PURPOSE_STEP, stream, step).standard_normal((n, m))``,
    but building a keyed ``Philox`` costs a ``SeedSequence`` (and an
    ``os.urandom`` read) per call, so the thread's generator is re-keyed
    instead: its fresh state (counter 0, empty buffer) with the step's key.
    ``out``, a C-contiguous (n, m) float64 array, receives the same bytes.
    """
    rng = _step_rng
    if not hasattr(rng, "gen"):
        rng.gen = np.random.Generator(np.random.Philox(key=0))
        rng.fresh = rng.gen.bit_generator.state
    rng.fresh["state"]["key"] = _key(seed, _PURPOSE_STEP, stream, step)
    rng.gen.bit_generator.state = rng.fresh
    if out is None:
        return rng.gen.standard_normal((n, m))
    return rng.gen.standard_normal(out=out)


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

def alive_law(x: np.ndarray, y: np.ndarray, alive: np.ndarray) -> EmpiricalLaw:
    """The law of the alive rows: the whole arrays when nothing died."""
    if alive.all():
        return EmpiricalLaw(x, y)
    if not alive.any():
        raise NumericError(f"no law: all {alive.size} particles blew up")
    return EmpiricalLaw(x[alive], y[alive])


# Step noise is drawn a chunk of ceil(_CHUNK_NORMALS / (n m)) steps at a time.
# A helper thread draws chunks ahead of the loop only when one step's block
# holds at least _HELPER_MIN_BLOCK normals: the per-step re-key holds the GIL,
# so below that the hand-offs cost more than the drawing they move off the
# loop.  Tamed-cubic drift, m = 1, µs per step without -> with the helper
# (2-core x86 machine, median of 7): N = 1000 113 -> 188, N = 2000 154 -> 231,
# N = 3000-4000 even, N = 6000 320 -> 236, N = 10^4 569 -> 362.
_CHUNK_NORMALS = 40_000
_HELPER_MIN_BLOCK = 5_000
_RING_DEPTH = 3


class _NoiseRing:
    """Step k's increments ``sqrt(h) * step_normals(seed, stream, k, n, m)``, k < K,
    a chunk of B steps at a time, in a ring of reused buffers.

    Chunks are claimed in order: by the helper thread, when there is one, as
    soon as a buffer is free, and by the loop when the chunk it needs is not
    ready yet, so the loop fills the next unclaimed chunk instead of idling.
    Each step's block is keyed by its own k, so its bytes do not depend on the
    thread that drew it.  Without a helper the ring holds one buffer, which
    the loop fills as it reaches each chunk.
    """

    def __init__(self, seed: int, stream: int, n: int, m: int, h: float, K: int):
        self.B = max(1, min(K, -(-_CHUNK_NORMALS // (n * m))))
        self.K = K
        self.n_chunks = -(-K // self.B)
        threaded = n * m >= _HELPER_MIN_BLOCK and self.n_chunks > 1
        self.bufs = np.empty((_RING_DEPTH if threaded else 1, self.B, n, m))
        self.draw = (seed, stream, n, m, math.sqrt(h))
        self.cond = threading.Condition()
        self.claimed = 0      # chunks below this one have been claimed
        self.at = 0           # the chunk the loop is on; older chunks' buffers are free
        self.ready: set[int] = set()
        self.error: BaseException | None = None  # what the helper raised
        self.closed = False
        self.helper = threading.Thread(target=self._help, daemon=True) if threaded else None
        if self.helper is not None:
            self.helper.start()

    def _block(self, c: int) -> np.ndarray:
        lo = c * self.B
        return self.bufs[c % len(self.bufs), :min(self.B, self.K - lo)]

    def _claim(self) -> int | None:
        """The next chunk, if the ring is open, there is one and its buffer is free.
        Hold the lock."""
        c = self.claimed
        if self.closed or c >= min(self.n_chunks, self.at + len(self.bufs)):
            return None
        self.claimed += 1
        return c

    def _fill(self, c: int) -> None:
        seed, stream, n, m, sqh = self.draw
        block = self._block(c)
        for j, out in enumerate(block):
            step_normals(seed, stream, c * self.B + j, n, m, out=out)
        np.multiply(block, sqh, out=block)

    def _help(self) -> None:
        try:
            while True:
                with self.cond:
                    while (c := self._claim()) is None:
                        if self.closed or self.claimed == self.n_chunks:
                            return
                        self.cond.wait()
                self._fill(c)
                with self.cond:
                    self.ready.add(c)
                    self.cond.notify_all()
        except BaseException as exc:
            with self.cond:
                self.error = exc
                self.cond.notify_all()

    def chunk(self, c: int) -> np.ndarray:
        """Chunk c's increments, (steps, n, m); the buffers of earlier chunks become free."""
        with self.cond:
            self.at = c
            self.cond.notify_all()
            while c not in self.ready:
                if self.error is not None:
                    raise self.error
                own = self._claim()
                if own is None:
                    self.cond.wait()
                    continue
                self.cond.release()
                try:
                    self._fill(own)
                finally:
                    self.cond.acquire()
                self.ready.add(own)
            self.ready.remove(c)
        return self._block(c)

    def close(self) -> None:
        """Stop the helper and wait for it; a chunk it is drawing is finished first."""
        with self.cond:
            self.closed = True
            self.cond.notify_all()
        if self.helper is not None:
            self.helper.join()


@dataclass
class Ensemble:
    """N trajectories advanced under one coefficient set.

    Dead particles (a coordinate beyond the blowup threshold or non-finite)
    are frozen at their last finite state and excluded from laws; their
    count is reported, never silently dropped.  ``flow`` holds the laws
    recorded at the requested times.
    """

    seed: int
    stream: int
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    alive: np.ndarray
    flow: MeasureFlow | None = None

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
        return alive_law(self.x, self.y, self.alive)


def simulate_ensemble(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    init,
    law: Callable | None = None,
    stream: int = 0,
    record_times: Sequence[float] | None = None,
    observe: Callable | None = None,
) -> Ensemble:
    """Advance N paths of the system from ``init.sample(N)`` to the horizon.

    ``law(k, t, x, y, alive)`` returns the measure fed to z2 at step k,
    from the states at t_k: a frozen flow's law at t_k gives the decoupled
    dynamics the fixed-point iteration acts on, the ensemble's own law
    gives the interacting particle system.  Without it, measure-dependent
    coefficients see their reference measure.

    The laws of the alive particles at ``record_times``, grid times in
    [0, T] (:meth:`SimConfig.record_steps`), make up the ensemble's ``flow``.

    ``observe(k, t, x, y, dW)`` sees the state at t_k before step k, with
    that step's increments, for k = 0 .. K - 1, and once more at k = K
    with ``dW = None``; it is the only view of a path while it runs, since
    the loop keeps no history.  Neither callable may write into its arrays.
    ``dW`` is a view into a reused chunk buffer, valid only during the call:
    copy it to keep it.

    Step k's increments are ``sqrt(h) * step_normals(seed, stream, k, N, m)``,
    drawn a chunk of steps ahead; when one step's block is large, a helper
    thread draws them while the loop steps (:class:`_NoiseRing`).  The bytes
    do not depend on which thread drew them.
    """
    bad = validate_config(cfg, coeffs)
    if bad:
        raise InputError("invalid configuration: " + "; ".join(bad))
    steps = None if record_times is None else cfg.record_steps(record_times)
    x, y = init.sample(cfg.N)  # never written into: each step makes new arrays
    n, h, K = cfg.N, cfg.h, cfg.n_steps
    tamed = cfg.scheme == "tamed"
    alive = np.ones(n, dtype=bool)

    rec_set = set() if steps is None else set(steps.tolist())
    clouds = [alive_law(x, y, alive)] if 0 in rec_set else []

    n_alive = n
    ring = _NoiseRing(cfg.seed, stream, n, cfg.m, h, K)
    try:
        for k in range(K):
            t = k * h
            law_k = law(k, t, x, y, alive) if law is not None else None
            c, j = divmod(k, ring.B)
            if j == 0:
                chunk = ring.chunk(c)
            dW = chunk[j]
            if observe is not None:
                observe(k, t, x, y, dW)

            # Death mask.  NaN fails every comparison, so it marks a row dead
            # as inf does.  One whole-array test per step is far cheaper than
            # the per-row reductions, which run only when some value fails it.
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

            if (k + 1) in rec_set:
                clouds.append(alive_law(x, y, alive))
    finally:
        ring.close()
    if observe is not None:
        observe(K, K * h, x, y, None)

    flow = None if steps is None else MeasureFlow(steps * h, clouds)
    return Ensemble(seed=cfg.seed, stream=stream, times=cfg.times(), x=x, y=y, alive=alive,
                    flow=flow)


# --- Girsanov reweighting ---------------------------------------------------------

@dataclass(frozen=True)
class GirsanovResult:
    """Reweighted terminal law with martingale and divergence diagnostics."""

    law: EmpiricalLaw
    log_weights: np.ndarray
    mean_weight: float
    ess: float
    pinsker_tv_bound: float


class GirsanovAccumulator:
    """log R_t = int <xi, dW> - 1/2 int |xi|^2 dt along a run, as its ``observe`` hook.

    The stochastic integral uses the left endpoint (Ito); the compensator
    integral of |xi|^2 uses the trapezoid rule.  Call k returns log R at t_k
    and |xi(t_k)|^2, both taken before step k's increment is added; after
    the run ``log_r`` holds log R at the horizon.
    """

    def __init__(self, xi: Callable, n: int, h: float):
        self.xi, self.h = xi, h
        self.ito = np.zeros(n)
        self.comp = np.zeros(n)
        self.sq = None
        self.log_r = None

    def __call__(self, k, t, x, y, dW) -> tuple[np.ndarray, np.ndarray]:
        xi_k = np.asarray(self.xi(t, x, y), dtype=float)
        sq = np.sum(xi_k * xi_k, axis=1)
        if self.sq is not None:
            np.add(self.comp, 0.5 * self.h * (self.sq + sq), out=self.comp)
        self.sq = sq
        self.log_r = self.ito - 0.5 * self.comp
        if dW is not None:
            np.add(self.ito, np.sum(xi_k * dW, axis=1), out=self.ito)
        return self.log_r, sq


def girsanov_weighted_law(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    xi: Callable,
    init,
    stream: int = 0,
) -> GirsanovResult:
    """Importance-sampling estimate of the drift-shifted law.

    Runs the reference ensemble and weights it by
    R_T = exp(int <xi, dW> - 1/2 int |xi|^2), which reproduces the law of
    the dynamics with drift shifted by sigma * xi.  Reports the mean weight
    (1 in expectation), the effective sample size, and the total-variation
    bound sqrt(2 E[R log R]) between the weighted and unweighted laws.
    """
    acc = GirsanovAccumulator(xi, cfg.N, cfg.h)
    ens = simulate_ensemble(cfg, coeffs, init, stream=stream, observe=acc)
    logw = acc.log_r
    ok = ens.alive
    w = np.exp(logw[ok])
    n = int(np.count_nonzero(ok))
    total = math.fsum(w.tolist())
    sq_total = math.fsum((w * w).tolist())
    if sq_total == 0.0:
        # every weight is below 1e-154 (or no particle is alive): the mean
        # weight, 1 in expectation, is lost and the ESS counts as 0
        raise DegenerateReweightingError(0.0, n)
    ess = total**2 / sq_total
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
    increments: np.ndarray | None = None,
) -> tuple[Path, Path]:
    """Write a binary columnar snapshot plus a JSON sidecar.

    Layout: little-endian float64 x block (n*d1), y block (n*d2), weights (n),
    then, when given, the run's (K, n, m) increments block.
    """
    base = Path(base)
    law = ens.law()
    blocks = [law.x, law.y, law.weights]
    has_inc = increments is not None
    if has_inc:
        blocks.append(increments)
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
        "has_increments": has_inc,
        "increments_shape": list(increments.shape) if has_inc else None,
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
