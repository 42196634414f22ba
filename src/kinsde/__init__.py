"""Simulation and verification engine for degenerate kinetic SDEs.

The package simulates systems of the form

    dX_t = Z1(X_t, Y_t) dt
    dY_t = (Z2(X_t, Y_t, law) + b(Y_t)) dt + sigma(Y_t) dW_t

where the position block X carries no noise, b may be singular (locally
integrable only), and Z2 may depend on the law of the current state
(mean-field coupling).  On top of the integrators it provides numeric
checks for the structural assumptions these systems are studied under:
localized space-time integrability norms, Lyapunov drift certificates,
the 1-D Zvonkin change of variables, Girsanov reweighting diagnostics,
and empirical ergodicity measurements.
"""

from kinsde.core import (AdmissiblePair, CoefficientSet, DiracInit, EmpiricalLaw, HistogramSpec,
                         SimConfig, localized_lpq_norm)
from kinsde.fields import ConfiningDrift, LyapunovV, MeanFieldKernel, PhiFamily, RieszDrift
from kinsde.integrators import Ensemble, simulate_ensemble

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePair", "CoefficientSet", "DiracInit", "EmpiricalLaw", "Ensemble", "ConfiningDrift",
    "HistogramSpec", "LyapunovV", "MeanFieldKernel", "PhiFamily", "RieszDrift", "SimConfig",
    "localized_lpq_norm", "simulate_ensemble", "__version__",
]
