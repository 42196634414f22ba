"""Mean-field dynamics: interacting particles, fixed-point iteration, sweeps.

The law-flow map sends a candidate flow of measures to the law flow of the
decoupled dynamics with that flow frozen into the drift; its fixed point is
the mean-field law, approximated directly by the interacting particle
system.  Iterations reuse common random numbers so the measure argument's
effect is isolated from Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from kinsde.core import (CloudInit, CoefficientSet, EmpiricalLaw, HistogramSpec, InputError,
                         MeasureFlow, SimConfig)
from kinsde.ergodicity import (DecayFit, HistogramLaw, TVDecaySeries, bootstrap_noise_floor,
                               compare_flows, histogram_law, law_distances)
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


class _ReadOnceFlow(MeasureFlow):
    """A flow that only the Picard loop holds, frozen into its next iterate.

    Step j reads cloud j once, and from then on rho_lam needs only the cloud's
    histogram on ``spec``: :meth:`law_at` swaps the cloud for it, so an iterate
    holds one flow and a slice, not two flows.  It takes over ``flow``'s list
    of clouds, so ``flow`` must be one that nothing else holds."""

    def __init__(self, flow: MeasureFlow, spec: HistogramSpec):
        super().__init__(flow.times, flow.clouds)
        object.__setattr__(self, "spec", spec)

    def law_at(self, t: float) -> EmpiricalLaw:
        law = super().law_at(t)
        if isinstance(law, HistogramLaw):
            raise ValueError(f"the frozen law at t = {t!r} was read already")
        # binned by the previous iterate's rho_lam (memo), or here for the initial law
        self.clouds[self._index[t]] = histogram_law(law, self.spec)
        return law


def rho_lambda(a: MeasureFlow, b: MeasureFlow, lam: float, spec) -> float:
    """sup over grid times of e^(-lam t) times the slice total variation."""
    if not 0.0 <= lam < math.inf:
        raise InputError(f"lam must be nonnegative and finite, got {lam!r}")
    if not np.array_equal(a.times, b.times):
        raise ValueError("flows live on different grids")
    dist = law_distances(a.clouds, b.clouds, spec)
    return float(max((math.exp(-lam * t) * d for t, d in zip(a.times, dist)), default=0.0))


# --- interacting particle system ----------------------------------------------------

def particle_system_run(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    init,
    record_times: Sequence[float] | None = None,
    stream: int = 0,
    hist: HistogramSpec | None = None,
) -> tuple[MeasureFlow, Ensemble]:
    """N coupled particles; the measure argument is the ensemble's own law.

    Each step sees the empirical law of the previous slice's states, so the
    mean-field average never reads in-progress updates.  Dead particles are
    excluded from the law and reported.  ``hist`` bins the recorded slices as
    :func:`simulate_ensemble` does.
    """
    own_law = lambda k, t, x, y, alive: alive_law(x, y, alive)
    ens = simulate_ensemble(cfg, coeffs, init, law=own_law, stream=stream, hist=hist,
                            record_times=cfg.times() if record_times is None else record_times)
    return ens.flow, ens


# --- fixed-point iteration over measure flows ---------------------------------------

def picard_iterate(flow: MeasureFlow, cfg: SimConfig, coeffs: CoefficientSet, init,
                   lam: float) -> tuple[MeasureFlow, float]:
    """One application of the law-flow map with ``flow`` frozen in: the next
    flow and its rho_lam distance from ``flow``.  Every iterate runs on
    stream 0, so successive iterates share their noise.  ``flow`` is left as it
    is, unless it is the Picard loop's own :class:`_ReadOnceFlow`."""
    ens = simulate_ensemble(cfg, coeffs, init, law=frozen(flow), record_times=cfg.times())
    return ens.flow, rho_lambda(ens.flow, flow, lam, cfg.hist)


@dataclass(frozen=True)
class PicardResult:
    flow: MeasureFlow
    rho_history: list[float]  # one entry per iterate
    lam: float
    converged: bool
    noise_floor: float


def picard_fixed_point(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    init,
    kappa: float,
    lam: float | None = None,
    max_iter: int = 20,
) -> PicardResult:
    """Iterate the law-flow map from the flow frozen at the initial law until rho
    falls below twice the bootstrap noise floor, or for ``max_iter`` iterates.
    The metric weight ``lam`` defaults to the 4 kappa T heuristic; a weight that
    is negative or not finite, or ``max_iter`` below 1, is refused before any run.

    Each iterate reads a flow that the loop alone holds (:class:`_ReadOnceFlow`),
    so the loop holds one flow and a slice at a time, not two flows."""
    if lam is None:
        lam = 4.0 * max(kappa, 0.25) * max(1.0, cfg.T)
    if not 0.0 <= lam < math.inf:
        raise InputError(f"lam must be nonnegative and finite, got {lam!r}")
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, got {max_iter!r}")
    flow = constant_flow(EmpiricalLaw(*init.sample(cfg.N)), cfg.times())
    flow, rho = picard_iterate(_ReadOnceFlow(flow, cfg.hist), cfg, coeffs, init, lam)
    rhos = [rho]
    floor = bootstrap_noise_floor(histogram_law(flow.clouds[-1], cfg.hist), cfg.seed)
    converged = False
    while len(rhos) < max_iter and not converged:
        flow, rho = picard_iterate(_ReadOnceFlow(flow, cfg.hist), cfg, coeffs, init, lam)
        rhos.append(rho)
        converged = rho < 2.0 * floor
    return PicardResult(flow, rhos, lam, converged, floor)


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
) -> FlowBoundReport:
    """Empirical TV between the two decoupled laws against its Girsanov bound.

    The reference run freezes ``flow_nu``; reweighting it by the exponential
    martingale of the drift-shift field reproduces the ``flow_mu`` dynamics,
    so twice the weighted relative entropy bounds the squared TV.  Alongside,
    sqrt(E int_0^t R_s |xi_s|^2 ds) is accumulated: it equals that bound in
    expectation, and the tests cross-check the Pinsker bound against it.
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

    # only the flows are kept, so the reference run's final states do not outlive it
    ref = simulate_ensemble(cfg, coeffs, init, law=frozen(flow_nu), stream=streams[0],
                            record_times=record_times, observe=observe, hist=cfg.hist).flow
    tgt = simulate_ensemble(cfg, coeffs, init, law=frozen(flow_mu), stream=streams[1],
                            record_times=record_times, hist=cfg.hist).flow
    series = compare_flows(ref, tgt, cfg.hist, cfg.seed)
    pinsker = np.array([math.sqrt(max(0.0, 2.0 * float(np.mean(np.exp(lw) * lw))))
                        for lw, _ in snapshots])
    xi_bound = np.array([math.sqrt(max(0.0, float(np.mean(a)))) for _, a in snapshots])
    ok = bool(np.all(series.tv <= pinsker + series.noise_floor))
    return FlowBoundReport(series.times, series.tv, pinsker, xi_bound, series.noise_floor,
                           "bound respected" if ok else "bound violated")


# --- uniform ergodicity sweep --------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    kappa: float
    series: TVDecaySeries
    fit: DecayFit


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
    with independent noise streams (40 + 2i and 41 + 2i for the i-th coupling),
    keeping each slice as its histogram on ``cfg.hist`` and only the flows, and
    fits the log-linear decay of TV(t) above the bootstrap floor.  Returns the
    largest coupling whose decay is confirmed.
    """
    entries: list[SweepEntry] = []
    for i, kappa in enumerate(kappas):
        coeffs = coeffs_factory(kappa)
        flow_a = particle_system_run(cfg, coeffs, init_a, record_times, 40 + 2 * i, cfg.hist)[0]
        flow_b = particle_system_run(cfg, coeffs, init_b, record_times, 41 + 2 * i, cfg.hist)[0]
        series = compare_flows(flow_a, flow_b, cfg.hist, cfg.seed + i)
        entries.append(SweepEntry(kappa, series, series.fit(fit_from)))
    confirmed = [e.kappa for e in entries if e.fit.verdict == "decay confirmed"]
    return SweepResult(entries, max(confirmed) if confirmed else None)
