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
from typing import Callable, Iterator, Sequence

import numpy as np

from kinsde.core import (CoefficientSet, EmpiricalLaw, HistogramSpec, InputError, MeasureFlow,
                         NumericError, SimConfig, _percentiles, _row_norm)

BLOWUP_THRESHOLD = 1e12
UNSTABLE_DEAD_FRACTION = 1e-3

_PURPOSE_STEP = 0
_PURPOSE_BOOT = 2

SNAPSHOT_FORMAT = 2


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
    return v / (1.0 + h * _row_norm(v, keepdims=True))


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
# so at small blocks the hand-offs cost more than the drawing they move off
# the loop.  Tamed-cubic drift, m = 1, 1000 steps, µs per step without -> with
# the helper (2-core x86 machine, median of 11 alternating pairs, steal under
# 0.4 %): N = 1000 141 -> 156 (helper faster in 0 of 11), N = 2000 204 -> 195
# (10 of 11), N = 3000 166 -> 158 (6 of 11), N = 4000 257 -> 222, N = 6000
# 356 -> 268, N = 10^4 408 -> 292 (11 of 11 each); an earlier set under up to
# 12 % steal had the helper faster in 4 of 11 at N = 2000 and in 11 of 11 only
# at N = 10^4.  Whole CLI runs, medians of alternating runs without -> with the
# helper, steal under 4.3 %: `mkv-sweep configs/mkv_sweep.cfg` (N = 4000)
# 3.04 -> 2.42 s (faster in 4 of 5), and pinned to one core with `taskset -c 0`
# 3.04 -> 2.91 s (faster in 2 of 5); `mkv-picard configs/mkv_picard.cfg`
# (N = 4000, 100 steps an iterate) 0.47 -> 0.47 s (3 of 7), and with the
# clipped-difference kernel at N = 2000 0.50 -> 0.52 s (5 of 7).  The gain
# needs the second core, and even then the helper's draws slow the loop's own
# numpy calls: a separate process drawing normals beside the serial sweep took
# it from 1.71 to 2.21 s.
_CHUNK_NORMALS = 40_000
_HELPER_MIN_BLOCK = 2_000
_RING_DEPTH = 3


def _step_noise(seed: int, stream: int, n: int, m: int, h: float, K: int) -> Iterator[np.ndarray]:
    """Step k's increments ``sqrt(h) * step_normals(seed, stream, k, n, m)`` for k < K,
    each a view into a reused buffer, drawn a chunk of B steps at a time.

    With a helper, a one-thread pool draws the next depth - 1 chunks, each
    submitted once the loop has left the buffer it reuses; while the helper
    draws the chunk the loop needs, the loop takes back (``Future.cancel``) the
    later chunks it has not started and draws them itself.  Each step is keyed
    by its own k, so the bytes do not depend on the thread.  ``close()`` cancels
    what the helper has not started and joins it.
    """
    B = max(1, min(K, -(-_CHUNK_NORMALS // (n * m))))
    n_chunks = -(-K // B)
    depth = _RING_DEPTH if n * m >= _HELPER_MIN_BLOCK and n_chunks > 1 else 1
    bufs = np.empty((depth, B, n, m))

    def fill(c: int) -> np.ndarray:
        block = bufs[c % depth, :min(B, K - c * B)]
        for j, out in enumerate(block):
            step_normals(seed, stream, c * B + j, n, m, out=out)
        np.multiply(block, math.sqrt(h), out=block)
        return block

    if depth == 1:
        for c in range(n_chunks):
            yield from fill(c)
        return
    from concurrent.futures import Future, ThreadPoolExecutor

    def drawn(c: int) -> Future:  # chunk c, drawn on the loop thread
        fut = Future()
        fut.set_result(fill(c))
        return fut

    pool = ThreadPoolExecutor(1)
    try:
        ahead = [pool.submit(fill, c) for c in range(1, min(depth, n_chunks))]
        yield from fill(0)
        for c in range(1, n_chunks):
            if c + depth - 1 < n_chunks:  # chunk c - 1's buffer is free now
                ahead.append(pool.submit(fill, c + depth - 1))
            fut = ahead.pop(0)
            if fut.cancel():  # the helper never started it
                fut = drawn(c)
            for i, later in enumerate(ahead):  # pitch in while the helper draws chunk c
                if fut.done():
                    break
                if later.cancel():
                    ahead[i] = drawn(c + 1 + i)
            yield from fut.result()
    finally:
        pool.shutdown(cancel_futures=True)


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
    hist: HistogramSpec | None = None,
    part: Callable | None = None,
) -> Ensemble:
    """Advance N paths of the system from ``init.sample(N)`` to the horizon.

    ``law(k, t, x, y, alive)`` returns what z2 reads of the measure at step k,
    from the states at t_k: a law, or the part of one that z2 reads
    (``CoefficientSet.law_part``).  A frozen flow's slice at t_k gives the
    decoupled dynamics the fixed-point iteration acts on, the ensemble's own
    law gives the interacting particle system.  Without it, measure-dependent
    coefficients see their reference measure.

    The laws of the alive particles at ``record_times``, grid times in
    [0, T] (:meth:`SimConfig.record_steps`), make up the ensemble's ``flow``.
    With ``hist``, a run recorded only to be compared keeps each slice as its
    histogram on ``hist``, binned when it is recorded; with ``part`` too, a run
    recorded to be frozen keeps ``FrozenSlice(histogram, part(law))``.

    ``observe(k, t, x, y, dW)`` sees the state at t_k before step k, with
    that step's increments, for k = 0 .. K - 1, and once more at k = K
    with ``dW = None``; it is the only view of a path while it runs, since
    the loop keeps no history.  Neither callable may write into its arrays.
    ``dW`` is a view into a reused chunk buffer, valid only during the call:
    copy it to keep it.

    Step k's increments are ``sqrt(h) * step_normals(seed, stream, k, N, m)``,
    drawn a chunk of steps ahead by :func:`_step_noise`, on a helper thread
    too when one step's block is large.  The bytes do not depend on which
    thread drew them.
    """
    if (cfg.d1, cfg.d2, cfg.m) != (coeffs.d1, coeffs.d2, coeffs.m):
        raise InputError(f"config dims (d1, d2, m) = {(cfg.d1, cfg.d2, cfg.m)} "
                         f"do not match coefficients {(coeffs.d1, coeffs.d2, coeffs.m)}")
    if coeffs.growth == "superlinear" and cfg.scheme != "tamed":
        raise InputError("superlinear drift (a confining delta > 0) requires scheme = tamed")
    steps = None if record_times is None else cfg.record_steps(record_times)
    if hist is not None and (steps is None or steps.size == 0):
        raise InputError("no record time: a run recorded to be compared records a law")
    from kinsde.ergodicity import FrozenSlice, histogram_law  # it imports this module
    x, y = init.sample(cfg.N)  # never written into: each step makes new arrays
    n, h, K = cfg.N, cfg.h, cfg.n_steps
    tamed = cfg.scheme == "tamed"
    alive = np.ones(n, dtype=bool)

    rec_set = set() if steps is None else set(steps.tolist())

    def record():
        law = alive_law(x, y, alive)
        kept = law if hist is None else histogram_law(law, hist)
        return kept if part is None else FrozenSlice(kept, part(law))

    clouds = [record()] if 0 in rec_set else []

    n_alive = n
    noise = _step_noise(cfg.seed, stream, n, cfg.m, h, K)
    try:
        for k, dW in zip(range(K), noise):
            t = k * h
            law_k = law(k, t, x, y, alive) if law is not None else None
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
                clouds.append(record())
    finally:
        noise.close()
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
) -> GirsanovResult:
    """Importance-sampling estimate of the drift-shifted law.

    Runs the reference ensemble and weights it by
    R_T = exp(int <xi, dW> - 1/2 int |xi|^2), which reproduces the law of
    the dynamics with drift shifted by sigma * xi.  Reports the mean weight
    (1 in expectation), the effective sample size, and the total-variation
    bound sqrt(2 E[R log R]) between the weighted and unweighted laws.
    """
    acc = GirsanovAccumulator(xi, cfg.N, cfg.h)
    ens = simulate_ensemble(cfg, coeffs, init, observe=acc)
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

    def xi(t, x, y):
        sig_t = np.swapaxes(coeffs.sigma_at(t, y), -1, -2)  # (m, d2) or (n, m, d2)
        proj = sig_t @ np.linalg.inv(np.swapaxes(sig_t, -1, -2) @ sig_t)
        return np.einsum("...ki,...i->...k", proj, delta_z2(t, x, y))

    return xi


# --- Khasminskii-type exponential moment estimate ---------------------------------

@dataclass(frozen=True)
class KhasminskiiResult:
    estimate: float
    ci_lo: float
    ci_hi: float
    diverged: bool


def khasminskii_estimate(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    f: Callable,
    init,
) -> KhasminskiiResult:
    """Monte Carlo estimate of E[exp(int_0^T |f_t(Y_t)|^2 dt)] with bootstrap CI.

    The path integral uses the trapezoid rule accumulated online.  Exponent
    overflow is reported as a +inf estimate (finite-sample divergence
    evidence), not an exception; a run that no particle survives raises.
    """
    acc = np.zeros(cfg.N)
    prev = {"g": None}

    def on_state(k, t, x, y, dW):
        with np.errstate(over="ignore"):  # an infinite integral is reported as divergence
            g = np.asarray(f(t, y), dtype=float) ** 2
            if prev["g"] is not None:
                np.add(acc, 0.5 * cfg.h * (prev["g"] + g), out=acc)
        prev["g"] = g

    ens = simulate_ensemble(cfg, coeffs, init, observe=on_state)
    if not ens.alive.any():
        raise NumericError(f"no estimate: all {ens.n} particles blew up")
    with np.errstate(over="ignore"):
        vals = np.exp(acc[ens.alive])
    est = float(np.mean(vals))
    diverged = not np.isfinite(est)
    if diverged:
        return KhasminskiiResult(math.inf, math.nan, math.inf, True)
    rng = bootstrap_rng(cfg.seed)
    n_boot = 400
    boots = np.empty(n_boot)
    with np.errstate(over="ignore"):  # a resample may repeat a huge value: its mean is inf
        for i in range(n_boot):
            idx = rng.integers(0, vals.size, vals.size)
            boots[i] = np.mean(vals[idx])
    lo, hi = _percentiles(boots, [2.5, 97.5])
    # no boot is NaN, so a NaN point interpolates next to an inf one (inf - inf): it is inf
    lo, hi = (math.inf if math.isnan(v) else v for v in (lo, hi))
    return KhasminskiiResult(est, lo, hi, False)


# --- snapshot persistence ---------------------------------------------------------

def save_snapshot(base: str | Path, ens: Ensemble, config_hash: str = "") -> tuple[Path, Path]:
    """Write a binary columnar snapshot plus a JSON sidecar.

    Layout: little-endian float64 x block (n*d1), y block (n*d2), weights (n).
    Step k's increments are not stored: they are
    ``sqrt(h) * step_normals(seed, stream, k, N, m)``.
    """
    base = Path(base)
    law = ens.law()
    bin_path = base.with_suffix(".bin")
    with open(bin_path, "wb") as fh:
        for blk in (law.x, law.y, law.weights):
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
    }
    json_path = base.with_suffix(".json")
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return bin_path, json_path


def load_snapshot(base: str | Path) -> tuple[EmpiricalLaw, dict]:
    """The law and sidecar :func:`save_snapshot` wrote; a sidecar of another format, or
    a ``.bin`` of another size than 8 n (d1 + d2 + 1) bytes, is refused naming the file."""
    bin_path, json_path = Path(base).with_suffix(".bin"), Path(base).with_suffix(".json")
    meta = json.loads(json_path.read_text())
    if meta.get("format") != SNAPSHOT_FORMAT:
        raise InputError(f"{json_path}: format {meta.get('format')!r}, not {SNAPSHOT_FORMAT}")
    n, d1, d2 = meta["n"], meta["d1"], meta["d2"]
    data, size = bin_path.read_bytes(), 8 * n * (d1 + d2 + 1)
    if len(data) != size:
        raise InputError(f"{bin_path} holds {len(data)} bytes, its sidecar implies {size}")
    raw = np.frombuffer(data, dtype="<f8")
    x = raw[:n * d1].reshape(n, d1).copy()
    y = raw[n * d1:n * (d1 + d2)].reshape(n, d2).copy()
    w = raw[n * (d1 + d2):].copy()
    return EmpiricalLaw(x, y, w), meta
