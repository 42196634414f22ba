"""Mean-field dynamics: interacting particles, fixed-point iteration, sweeps.

The law-flow map sends a candidate flow of measures to the law flow of the
decoupled dynamics with that flow frozen into the drift; its fixed point is
the mean-field law, approximated directly by the interacting particle
system.  Iterations reuse common random numbers by default so the measure
argument's effect is isolated from Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from kinsde.core import CloudInit, CoefficientSet, EmpiricalLaw, MeasureFlow, SimConfig
from kinsde.ergodicity import DecayFit, bootstrap_noise_floor, fit_exponential_decay, law_distances
from kinsde.integrators import (
    Ensemble,
    GirsanovAccumulator,
    alive_law,
    drift_difference_xi,
    simulate_ensemble,
)


def constant_flow(law: EmpiricalLaw, times) -> MeasureFlow:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return MeasureFlow(times, [law] * times.size)


def frozen(flow: MeasureFlow) -> Callable:
    """The ``law`` argument of :func:`simulate_ensemble` that freezes ``flow``;
    a step at a time the flow did not record raises ``ValueError``."""
    return lambda k, t, *_: flow.law_at(t)


def rho_lambda(a: MeasureFlow, b: MeasureFlow, lam: float, spec, V=None) -> float:
    """sup over grid times of e^(-lam t) times the slice distance.

    The slice distance is plain total variation, or its V-weighted variant
    when a Lyapunov weight is supplied.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not np.array_equal(a.times, b.times):
        raise ValueError("flows live on different grids")
    dist = law_distances(a.clouds, b.clouds, spec, V)
    return float(max((math.exp(-lam * t) * d for t, d in zip(a.times, dist)), default=0.0))


# --- interacting particle system ----------------------------------------------------

def particle_system_run(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    init,
    record_times: Sequence[float] | None = None,
    stream: int = 0,
) -> tuple[MeasureFlow, Ensemble]:
    """N coupled particles; the measure argument is the ensemble's own law.

    Each step sees the empirical law of the previous slice's states, so the
    mean-field average never reads in-progress updates.  Dead particles are
    excluded from the law and reported.
    """
    own_law = lambda k, t, x, y, alive: alive_law(x, y, alive)
    ens = simulate_ensemble(cfg, coeffs, init, law=own_law, stream=stream,
                            record_times=cfg.times() if record_times is None else record_times)
    return ens.flow, ens


# --- fixed-point iteration over measure flows ---------------------------------------

@dataclass
class PicardState:
    iteration: int
    flow: MeasureFlow
    rho_history: list[float]
    lam: float
    common_random_numbers: bool
    base_stream: int


def picard_start(
    cfg: SimConfig,
    init,
    lam: float,
    common_random_numbers: bool = True,
    stream: int = 0,
) -> PicardState:
    """Iteration zero: the flow frozen at the initial law for all times."""
    x0, y0 = init.sample(cfg.N)
    flow = constant_flow(EmpiricalLaw(x0, y0), cfg.times())
    return PicardState(0, flow, [], lam, common_random_numbers, stream)


def picard_iterate(state: PicardState, cfg: SimConfig, coeffs: CoefficientSet,
                   init) -> PicardState:
    """One application of the law-flow map with the current flow frozen in."""
    stream = state.base_stream if state.common_random_numbers \
        else state.base_stream + state.iteration + 1
    ens = simulate_ensemble(cfg, coeffs, init, law=frozen(state.flow), stream=stream,
                            record_times=cfg.times())
    rho = rho_lambda(ens.flow, state.flow, state.lam, cfg.hist)
    return PicardState(
        state.iteration + 1, ens.flow, state.rho_history + [rho],
        state.lam, state.common_random_numbers, state.base_stream,
    )


@dataclass(frozen=True)
class PicardResult:
    state: PicardState
    converged: bool
    noise_floor: float
    n_iterations: int


def picard_fixed_point(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    init,
    kappa: float,
    lam: float | None = None,
    max_iter: int = 20,
    common_random_numbers: bool = True,
    stream: int = 0,
) -> PicardResult:
    """Iterate the law-flow map until successive flows agree at noise level.

    The contraction metric weight defaults to the 4 kappa T heuristic; the
    stopping rule is rho below twice the bootstrap noise floor or the
    iteration cap.
    """
    if lam is None:
        lam = 4.0 * max(kappa, 0.25) * max(1.0, cfg.T)
    state = picard_start(cfg, init, lam, common_random_numbers, stream)
    state = picard_iterate(state, cfg, coeffs, init)
    floor = bootstrap_noise_floor(state.flow.clouds[-1], cfg.hist, seed=cfg.seed)
    converged = False
    while state.iteration < max_iter:
        state = picard_iterate(state, cfg, coeffs, init)
        if state.rho_history[-1] < 2.0 * floor:
            converged = True
            break
    return PicardResult(state, converged, floor, state.iteration)


# --- Girsanov comparison of two frozen flows -----------------------------------------

@dataclass(frozen=True)
class FlowBoundReport:
    times: np.ndarray
    tv: np.ndarray
    pinsker_bound: np.ndarray
    xi_integral_bound: np.ndarray
    noise_floor: float
    verdict: str  # bound respected | bound violated


def girsanov_flow_bound(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    flow_mu: MeasureFlow,
    flow_nu: MeasureFlow,
    record_times: Sequence[float],
    init=None,
    streams: tuple[int, int] = (21, 22),
    V=None,
) -> FlowBoundReport:
    """Empirical TV between the two decoupled laws against its Girsanov bound.

    The reference run freezes ``flow_nu``; reweighting it by the exponential
    martingale of the drift-shift field reproduces the ``flow_mu`` dynamics,
    so twice the weighted relative entropy bounds the squared TV.  The
    running shift-integral bound is accumulated alongside for the chart.
    Passing a Lyapunov weight V swaps in the weighted variation distance on
    the empirical side of the comparison.
    """

    def delta_z2(t, x, y):
        return np.asarray(coeffs.z2(t, x, y, flow_mu.law_at(t))) - np.asarray(
            coeffs.z2(t, x, y, flow_nu.law_at(t))
        )

    xi = drift_difference_xi(coeffs, delta_z2)
    if init is None:
        init = CloudInit(flow_nu.clouds[0])  # the two decoupled runs share one initial law
    rec_set = set(cfg.record_steps(record_times).tolist())
    h = cfg.h

    acc = GirsanovAccumulator(xi, cfg.N, h)
    a_int = np.zeros(cfg.N)  # int_0^t R_s |xi_s|^2 ds, left point
    snapshots = []  # (log R_t, a_int at t) at each recorded step, in order

    def observe(k, t, x, y, dW):
        logw, sq = acc(k, t, x, y, dW)
        if k in rec_set:
            snapshots.append((logw, a_int.copy()))
        if dW is not None:
            np.add(a_int, np.exp(logw) * sq * h, out=a_int)

    ens_ref = simulate_ensemble(cfg, coeffs, init, law=frozen(flow_nu), stream=streams[0],
                                record_times=record_times, observe=observe)
    ens_tgt = simulate_ensemble(cfg, coeffs, init, law=frozen(flow_mu), stream=streams[1],
                                record_times=record_times)
    tv = law_distances(ens_ref.flow.clouds, ens_tgt.flow.clouds, cfg.hist, V)
    pinsker = np.array([math.sqrt(max(0.0, 2.0 * float(np.mean(np.exp(lw) * lw))))
                        for lw, _ in snapshots])
    xi_bound = np.array([math.sqrt(max(0.0, float(np.mean(a)))) for _, a in snapshots])
    floor = bootstrap_noise_floor(ens_ref.flow.clouds[-1], cfg.hist, seed=cfg.seed)
    ok = bool(np.all(tv <= pinsker + floor))
    return FlowBoundReport(ens_ref.flow.times, tv, pinsker, xi_bound, floor,
                           "bound respected" if ok else "bound violated")


# --- uniform ergodicity sweep --------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    kappa: float
    fit: DecayFit
    noise_floor: float
    times: np.ndarray
    tv: np.ndarray


@dataclass(frozen=True)
class SweepResult:
    entries: list[SweepEntry]
    kappa_star: float | None

    def entry(self, kappa: float) -> SweepEntry:
        for e in self.entries:
            if e.kappa == kappa:
                return e
        raise KeyError(kappa)


def uniform_ergodicity_sweep(
    cfg: SimConfig,
    coeffs_factory: Callable[[float], CoefficientSet],
    kappas: Sequence[float],
    init_a,
    init_b,
    record_times: Sequence[float],
    fit_from: float = 1.0,
) -> SweepResult:
    """Two-initial-law TV decay of the interacting system across couplings.

    Each coupling strength runs the particle system from both initial laws
    with independent noise streams (40 + 2i and 41 + 2i for the i-th coupling)
    and fits the log-linear decay of TV(t) above the bootstrap floor.  Returns
    the largest coupling whose decay is confirmed.
    """
    entries: list[SweepEntry] = []
    for i, kappa in enumerate(kappas):
        coeffs = coeffs_factory(kappa)
        flow_a, _ = particle_system_run(cfg, coeffs, init_a, record_times, stream=40 + 2 * i)
        flow_b, _ = particle_system_run(cfg, coeffs, init_b, record_times, stream=41 + 2 * i)
        tv = law_distances(flow_a.clouds, flow_b.clouds, cfg.hist)
        floor = bootstrap_noise_floor(flow_a.clouds[-1], cfg.hist, seed=cfg.seed + i)
        window = flow_a.times >= fit_from
        fit = fit_exponential_decay(flow_a.times[window], tv[window], noise_floor=floor)
        entries.append(SweepEntry(kappa, fit, floor, flow_a.times, tv))
    confirmed = [e.kappa for e in entries if e.fit.verdict == "decay confirmed"]
    return SweepResult(entries, max(confirmed) if confirmed else None)
