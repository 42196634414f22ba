"""Command-line front end: config files in, CSV/JSON/snapshot artifacts out.

Every run writes a manifest carrying the config snapshot, its hash, and the
produced file list with each file's sha256, which ``kinsde verify`` rechecks;
rerunning from the same config reproduces all numeric
outputs bit-exactly on one machine.  All randomness flows from the single
seed in the config; there are no hidden entropy sources.

Exit codes: 0 success, 2 refused input (``InputError``), 3 numeric failure
(``NumericError``, or a ``MemoryError`` from a run too large for the machine).
Any other exception is a bug and escapes with its traceback.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from kinsde import __version__
from kinsde.core import (AdmissiblePair, DiracInit, HistogramSpec, InputError, NumericError,
                         SimConfig, _row_norm, localized_lpq_norm, off_grid)
from kinsde.ergodicity import TVDecaySeries, h_envelope, tv_decay_experiment
from kinsde.fields import (ConfiningDrift, LyapunovV, MeanFieldKernel, PhiFamily, RieszDrift,
                           bounded_sine_perturbation, confining_coefficients,
                           linear_langevin_coefficients, scalar_ou_coefficients, zero_coefficients)
from kinsde.integrators import khasminskii_estimate, save_snapshot, simulate_ensemble
from kinsde.lyapunov import CertificationError, LogRadialSamples, check_drift_condition, search_constants
from kinsde.mckean import picard_fixed_point, uniform_ergodicity_sweep
from kinsde.zvonkin import equivalence_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# The key registry: every config key any subcommand reads, by group.
_CORE_KEYS = {"T", "h", "N", "seed", "d1", "d2", "m", "scheme",
              "hist.min", "hist.max", "hist.bins"}
_FIELD_KEYS = {"drift", "c1", "c2", "c3", "delta", "z.scale", "sigma", "rate",
               "riesz.alpha", "riesz.atoms", "riesz.eta",
               "kernel", "kernel.w", "kappa"}
_RUN_KEYS = {"out.dir", "init.a", "init.b", "record.start", "record.stop", "record.step",
             "fit.from"}
_MODULE_KEYS = {
    "lyapunov.theta", "phi.kind", "phi.c0", "phi.beta", "eps.shell",
    "lyap.rmin", "lyap.rmax", "lyap.radii", "lyap.dirs", "lyap.kcap",
    "zvonkin.L", "zvonkin.n", "zvonkin.eps",
    "khasminskii.f", "khasminskii.a", "norm.p", "norm.q", "norm.extent",
    "picard.lam", "picard.maxiter",
    "sweep.kappas",
    "hbound.k", "hbound.lam", "hbound.v0", "hbound.tmax", "hbound.dt",
}
KNOWN_KEYS = _CORE_KEYS | _FIELD_KEYS | _RUN_KEYS | _MODULE_KEYS


def _parse_config(text: str) -> dict:
    """Parse and validate keys, reporting the offending line verbatim."""
    out: dict = {}
    line_of: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: malformed (expected 'key = value'): {raw}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise InputError(f"line {lineno}: unknown key in config: {raw}")
        if key in line_of:
            raise InputError(f"line {lineno}: key {key} repeats line {line_of[key]}: {raw}")
        line_of[key] = lineno
        try:
            out[key] = ast.literal_eval(val)
        except (SyntaxError, ValueError):
            out[key] = val
    return out


def _whole(key: str, val, least: int = -2**53) -> int:
    """``val`` as an int in [least, 2^53); integral floats such as 1e4 pass, booleans do not."""
    whole = type(val) is int or (isinstance(val, float) and val.is_integer())
    if not (whole and abs(val) < 2**53):
        raise InputError(f"{key} must be a whole number below 2^53 in size, got {val!r}")
    if val < least:
        raise InputError(f"{key} must be at least {least}, got {val!r}")
    return int(val)


def _number(key: str, val) -> float:
    """``val`` as a float; numbers (and inf or nan spelt out) pass, anything else is refused."""
    if isinstance(val, (int, float, str)) and not isinstance(val, bool):
        try:
            return float(val)
        except ValueError:
            pass
    raise InputError(f"{key} must be a number, got {val!r}")


def _real(key: str, val) -> float:
    """``val`` as a finite float; keys that take inf or range-check it read :func:`_number`."""
    x = _number(key, val)
    if not math.isfinite(x):
        raise InputError(f"{key} must be finite, got {x!r}")
    return x


def _positive(key: str, val) -> float:
    """``val`` as a finite float greater than 0."""
    x = _real(key, val)
    if not x > 0.0:
        raise InputError(f"{key} must be greater than 0, got {val!r}")
    return x


def _text(key: str, val) -> str:
    """``val`` as a string; a number or a list is refused."""
    if isinstance(val, str):
        return val
    raise InputError(f"{key} must be a string, got {val!r}")


def _reals(key: str, val, read=_real):
    """``val`` read as one number or as a list of numbers."""
    return [read(key, c) for c in val] if isinstance(val, (list, tuple)) else read(key, val)


def _keyed(keys: str, make, *args, **kw):
    """``make(*args, **kw)``; a refusal names the config keys the arguments came from."""
    try:
        return make(*args, **kw)
    except InputError as exc:
        raise InputError(f"{keys}: {exc}") from None


def _atoms(key: str, val) -> list[tuple]:
    """``val`` as a non-empty list of (location, weight) pairs; a location is
    a number or a list of numbers."""
    pair = lambda a: isinstance(a, (list, tuple)) and len(a) == 2
    if not (isinstance(val, (list, tuple)) and val and all(map(pair, val))):
        raise InputError(f"{key} must be a non-empty list of (location, weight) pairs, "
                         f"got {val!r}")
    return [(_reals(key, loc), _real(key, w)) for loc, w in val]


def _sim_config(kv: dict) -> SimConfig:
    missing = [k for k in ("T", "h", "N") if k not in kv]
    if missing:
        raise InputError(f"missing required keys: {', '.join(missing)}")
    cfg = SimConfig(
        T=_real("T", kv["T"]), h=_real("h", kv["h"]), N=_whole("N", kv["N"]),
        seed=_whole("seed", kv.get("seed", 0)), d1=_whole("d1", kv.get("d1", 1)),
        d2=_whole("d2", kv.get("d2", 1)), m=_whole("m", kv.get("m", kv.get("d2", 1))),
        scheme=str(kv.get("scheme", "euler")),
    )
    return dataclasses.replace(cfg, hist=_keyed(
        "hist.min, hist.max, hist.bins", HistogramSpec,
        _reals("hist.min", kv.get("hist.min", -6.0)), _reals("hist.max", kv.get("hist.max", 6.0)),
        _reals("hist.bins", kv.get("hist.bins", 16), _whole), cfg.d1 + cfg.d2))


def _build_kernel(kv: dict, d1: int) -> MeanFieldKernel | None:
    name = kv.get("kernel", "none")
    if name in ("none", None):
        return None
    if name == "constant":
        return MeanFieldKernel.constant(_reals("kernel.w", kv.get("kernel.w", 1.0)))
    if name in ("tanh_y", "tanh_x", "mean_attraction") and d1 != 1:
        raise InputError(
            f"kernel = {name} bounds each coordinate by 1, so with d1 = {d1} "
            f"its magnitude reaches sqrt({d1}) > 1; it needs d1 = 1")
    if name == "tanh_y":
        return MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
    if name == "tanh_x":
        return MeanFieldKernel.target(lambda xp, yp: np.tanh(xp), 1.0)
    if name == "mean_attraction":
        return MeanFieldKernel.clipped_difference()
    raise InputError(f"unknown kernel {name!r}")


def _build_riesz(kv: dict) -> RieszDrift | None:
    atoms = kv.get("riesz.atoms")
    if atoms is None:
        return None
    return _keyed("riesz.atoms, riesz.alpha, riesz.eta", RieszDrift, _atoms("riesz.atoms", atoms),
                  _real("riesz.alpha", kv.get("riesz.alpha", 0.5)),
                  _real("riesz.eta", kv.get("riesz.eta", 1e-6)))


def _sigma(val, d2: int, m: int):
    """``val`` as a finite number, or as the finite noise matrix: d2 rows of m numbers."""
    if not isinstance(val, (list, tuple)):
        return _real("sigma", val)
    if len(val) == d2 and all(isinstance(r, (list, tuple)) and len(r) == m for r in val):
        return np.array([[_real("sigma", v) for v in r] for r in val])
    raise InputError(f"sigma must be a number or a {d2} x {m} matrix, got {val!r}")


def _build_coefficients(kv: dict, cfg: SimConfig, kappa: float | None = None):
    name = kv.get("drift", "confining")
    sigma = (_sigma(kv["sigma"], *((cfg.d2, cfg.m) if name == "zero" else (cfg.d1, cfg.d1)))
             if "sigma" in kv else None)
    if name == "zero":
        return zero_coefficients(cfg.d1, cfg.d2, cfg.m, sigma=0.0 if sigma is None else sigma)
    if name == "linear_langevin":
        # canonical benchmark noise is sqrt(2) unless the config overrides it
        return linear_langevin_coefficients(cfg.d1, sigma=sigma)
    sigma = 1.0 if sigma is None else sigma
    if name == "scalar_ou":
        return scalar_ou_coefficients(_real("rate", kv.get("rate", 1.0)), sigma=sigma, d=cfg.d1)
    if name == "confining":
        z = kv.get("z.scale")
        pert = bounded_sine_perturbation(_real("z.scale", z)) if z else None
        drift = ConfiningDrift(
            c1=_real("c1", kv.get("c1", 1.0)), c2=_real("c2", kv.get("c2", 0.0)),
            c3=_real("c3", kv.get("c3", 1.0)), delta=_real("delta", kv.get("delta", 0.0)),
            perturbation=pert,
        )
        kap = _real("kappa", kv.get("kappa", 0.0)) if kappa is None else kappa
        return confining_coefficients(drift, b=_build_riesz(kv), d=cfg.d1, sigma=sigma,
                                      kernel=_build_kernel(kv, cfg.d1), kappa=kap)
    raise InputError(f"unknown drift {name!r}")


def _build_init(kv: dict, key: str, cfg: SimConfig) -> DiracInit:
    d = cfg.d1 + cfg.d2
    pt = _reals(key, kv.get(key, [0.0] * d))
    if not (isinstance(pt, list) and len(pt) == d):
        raise InputError(f"{key} needs {d} coordinates, got {kv.get(key)!r}")
    return DiracInit(pt[:cfg.d1], pt[cfg.d1:])


def _record_times(kv: dict, cfg: SimConfig) -> np.ndarray:
    """start, start + step, ... up to stop; a time off the grid or outside [0, T]
    names the start, else the step (the second time), else the stop."""
    h = cfg.h
    start = _real("record.start", kv.get("record.start", 0.0))
    stop = _real("record.stop", kv.get("record.stop", cfg.T))
    if stop < start:
        raise InputError(f"record.start = {start:g} and record.stop = {stop:g} "
                         f"give no record time in [0, T = {cfg.T:g}]")
    span = min(stop - start, cfg.T)  # never inf; a longer span fails below anyway
    step = _positive("record.step", kv.get("record.step", h * max(1, round(span / (16 * h)))))
    n = min((stop - start) / step, cfg.n_steps + 1)  # one time past T at most
    times = start + step * np.arange(math.floor(n + 1e-9) + 1)
    for key, val, head in (("record.start", start, 1), ("record.step", step, 2),
                           ("record.stop", stop, times.size)):
        _keyed(f"{key} = {val:g}", cfg.record_steps, times[:head])
    return times


# --- artifact writers -------------------------------------------------------------

def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_csv(path: Path, header: list[str], rows, chash: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash = {chash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _series_table(series: TVDecaySeries) -> tuple[list[str], list[tuple]]:
    """The distances of a two-law comparison, one row per time, with its noise floor."""
    return (["t", "distance", "noise_floor"],
            [(t, d, series.noise_floor) for t, d in zip(series.times, series.tv)])


def _fmt_cell(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return format(float(v), ".17g")
    return str(v)


def write_json(path: Path, payload: dict, chash: str):
    payload = dict(payload)
    payload["config_hash"] = chash
    # allow_nan=False: a bare NaN or Infinity token is not JSON; _jsonable spells them out
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
                    + "\n", encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):  # a 0-d array's tolist() is a scalar
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    return obj


class Manifest:
    """The run's record, and the one writer of its outputs: each file is listed
    with its sha256 as it is written into ``out``.  The module's ``write_csv``
    and ``write_json`` are looked up by name at each write, so a wrapper set on
    them (a profiler's) sees every output."""

    def __init__(self, out: Path, subcommand: str, config_text: str, seed: int, n_steps: int):
        self.out = out
        self.data = {
            "artifact_version": __version__,
            "subcommand": subcommand,
            "config_text": config_text,
            "config_hash": config_hash(config_text),
            "seed": seed,
            "step_count": n_steps,
            "outputs": [],
            "sha256": {},
        }
        self._t0 = time.time()

    @property
    def chash(self) -> str:
        return self.data["config_hash"]

    def add(self, path: Path):
        """List a written output and record its sha256; a name listed already
        would lose the earlier file, so it is refused."""
        if path.name in self.data["sha256"]:
            raise ValueError(f"output {path.name} is already listed")
        self.data["outputs"].append(path.name)
        self.data["sha256"][path.name] = file_hash(path)

    def csv(self, name: str, header: list[str], rows):
        write_csv(self.out / name, header, rows, self.chash)
        self.add(self.out / name)

    def json(self, name: str, payload: dict):
        write_json(self.out / name, payload, self.chash)
        self.add(self.out / name)

    def write(self):
        self.data["wall_clock_s"] = round(time.time() - self._t0, 3)
        p = self.out / "manifest.json"
        p.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return p


# --- subcommands ------------------------------------------------------------------

def cmd_simulate(kv, cfg, man):
    coeffs = _build_coefficients(kv, cfg)
    ens = simulate_ensemble(cfg, coeffs, _build_init(kv, "init.a", cfg))
    if ens.unstable:
        raise NumericError(f"run unstable: {ens.n_dead} of {ens.n} particles blew up")
    for path in save_snapshot(man.out / "snapshot", ens, man.chash):
        man.add(path)


def cmd_ergodicity(kv, cfg, man, replay: Path | None = None):
    fit_from = _real("fit.from", kv.get("fit.from", 0.0))
    if replay is not None:
        series = _read_replay(replay)
    else:
        coeffs = _build_coefficients(kv, cfg)
        series = tv_decay_experiment(
            cfg, coeffs, _build_init(kv, "init.a", cfg), _build_init(kv, "init.b", cfg),
            _record_times(kv, cfg),
        )
    fit = series.fit(fit_from)
    man.csv("distances.csv", *_series_table(series))
    man.json("fit.json", {
        "lambda_hat": fit.lam, "prefactor": fit.prefactor, "r2": fit.r2, "verdict": fit.verdict,
        "noise_floor": series.noise_floor, "n_points_used": int(np.sum(fit.used)),
    })


def _read(path: Path, what: str) -> str:
    """The text of ``path``; an unreadable file is refused, naming ``what``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from None


def _read_replay(path: Path) -> TVDecaySeries:
    """The t, distance[, noise_floor] rows of a ``--replay`` CSV, from its first numeric line."""
    lines = [ln for ln in _read(path, "--replay").splitlines() if ln.strip()]
    head = next((i for i, ln in enumerate(lines) if ln.lstrip(" +-.")[:1].isdigit()), len(lines))
    try:
        rows = np.loadtxt(lines[head:], delimiter=",", ndmin=2) if lines[head:] else None
    except ValueError as exc:
        raise InputError(f"--replay {path}: {exc}") from None
    if rows is None or rows.shape[1] < 2:
        raise InputError(f"--replay {path} holds no t,distance rows")
    return TVDecaySeries(rows[:, 0], rows[:, 1], float(rows[0, 2]) if rows.shape[1] > 2 else 0.0)


def cmd_lyapunov_check(kv, cfg, man):
    coeffs = _build_coefficients(kv, cfg)
    V = LyapunovV(_positive("lyapunov.theta", kv.get("lyapunov.theta", 1.0)), cfg.d1, cfg.d2)
    samples = LogRadialSamples(
        r_min=_positive("lyap.rmin", kv.get("lyap.rmin", 0.05)),
        r_max=_positive("lyap.rmax", kv.get("lyap.rmax", 50.0)),
        n_radii=_whole("lyap.radii", kv.get("lyap.radii", 24), 1),
        n_dirs=_whole("lyap.dirs", kv.get("lyap.dirs", 16), 1),
        seed=cfg.seed,
    )
    eps = _real("eps.shell", kv.get("eps.shell", 0.1))
    kind = kv.get("phi.kind", "linear")
    beta = _real("phi.beta", kv["phi.beta"]) if "phi.beta" in kv else None
    payload: dict = {}
    if "phi.c0" in kv:
        phi = _keyed("phi.kind, phi.c0, phi.beta", PhiFamily, kind,
                     _number("phi.c0", kv["phi.c0"]), beta)
        kcap = _real("lyap.kcap", kv.get("lyap.kcap", 50.0))  # inf would pass every point
        report = _keyed("eps.shell", check_drift_condition, coeffs, V, phi, kcap, eps, samples)
        payload.update({"mode": "check", "c0": phi.c0, "K": kcap})
    else:
        try:
            res = _keyed("eps.shell, phi.kind, phi.beta, lyap.kcap", search_constants, coeffs, V,
                         kind, eps, samples, beta=beta,
                         k_cap=_number("lyap.kcap", kv.get("lyap.kcap", 50.0)))  # inf: no cap
            report = res.report
            payload.update({"mode": "search", "c0": res.c0, "K": res.K})
        except CertificationError as exc:
            man.json("lyapunov.json", {"mode": "search", "verdict": "fails", "reason": str(exc)})
            return
    payload.update({
        "verdict": report.verdict, "min_margin": report.min_margin,
        "worst_point": report.worst_point, "summary": report.summary(),
        "n_flagged": len(report.flagged),
    })
    man.json("lyapunov.json", payload)
    d = cfg.d1 + cfg.d2
    header = [f"z{i}" for i in range(d)] + ["lhs", "rhs", "margin"]
    rows = [tuple(p) + (l, r, mg) for p, l, r, mg in
            zip(report.points, report.lhs, report.rhs, report.margins)]
    man.csv("margins.csv", header, rows)


def cmd_zvonkin(kv, cfg, man):
    coeffs = _build_coefficients(kv, cfg)
    L = _positive("zvonkin.L", kv.get("zvonkin.L", 12.0))
    if not L < 2.0**1023:  # else the grid [-L, L] is wider than the float range
        raise InputError(f"zvonkin.L must be below 2^1023, got {L!r}")
    n = _whole("zvonkin.n", kv.get("zvonkin.n", 4001), 5)
    dy = 2.0 * L / (n - 1)
    if dy * dy < sys.float_info.min:  # else the solve divides by dy^2 = 0
        raise InputError(f"zvonkin.L, zvonkin.n: the grid step 2L/(n - 1) = {dy!r} is too small,"
                         " its square underflows")
    eps = _real("zvonkin.eps", kv.get("zvonkin.eps", 0.1))
    if not 0.0 < eps < 1.0:
        raise InputError(f"zvonkin.eps must lie in (0, 1), got {eps!r}")
    report = equivalence_experiment(coeffs, cfg, _build_init(kv, "init.a", cfg),
                                    eps_target=eps, L=L, n_grid=n)
    sol = report.solution
    man.csv("solution.csv", ["y", "u", "du", "d2u", "theta"],
            zip(sol.grid, sol.u, sol.du, sol.d2u, sol.theta_values))
    man.json("zvonkin.json", {
        "lambda": sol.lam, "sup_bound": sol.sup_bound, "tv": report.tv,
        "noise_floor": report.noise_floor, "verdict": report.verdict,
        "out_of_domain_fraction": report.out_of_domain_fraction,
        "residual": sol.residual,
    })


def cmd_khasminskii(kv, cfg, man):
    coeffs = _build_coefficients(kv, cfg)
    kind = kv.get("khasminskii.f", "const")
    if kind == "const":
        a = _real("khasminskii.a", kv.get("khasminskii.a", 0.5))
        f = lambda t, y: np.full(y.shape[0], a)
    elif kind == "riesz":
        rz = _build_riesz(kv)
        if rz is None:
            raise InputError("khasminskii.f = riesz needs riesz.atoms")
        f = lambda t, y: _row_norm(rz(t, y))
    else:
        raise InputError(f"unknown khasminskii.f {kind!r}")
    p = _number("norm.p", kv.get("norm.p", 4.0))  # inf: the L^inf norm
    q = _number("norm.q", kv.get("norm.q", 4.0))
    pair = _keyed("norm.p, norm.q", AdmissiblePair, p, q, cfg.d2)
    extent = _real("norm.extent", kv.get("norm.extent", 3.0))
    res = khasminskii_estimate(cfg, coeffs, f, _build_init(kv, "init.a", cfg))
    centers = np.linspace(-extent, extent, 9)[:, None] if cfg.d2 == 1 else np.zeros((1, cfg.d2))
    norm = localized_lpq_norm(f, pair, cfg.T, centers, n_time=9, n_ball=201)
    man.json("khasminskii.json", {
        "estimate": res.estimate, "ci_lo": res.ci_lo, "ci_hi": res.ci_hi,
        "diverged": res.diverged, "lpq_norm": norm, "p": p, "q": q,
    })


def cmd_mkv_picard(kv, cfg, man):
    lam = _number("picard.lam", kv["picard.lam"]) if "picard.lam" in kv else None
    if lam is not None and not 0.0 <= lam < math.inf:
        raise InputError(f"picard.lam must be nonnegative and finite, got {lam!r}")
    max_iter = _whole("picard.maxiter", kv.get("picard.maxiter", 20), 1)
    kappa = _real("kappa", kv.get("kappa", 0.0))
    coeffs = _build_coefficients(kv, cfg)
    res = _keyed("picard.lam, kappa", picard_fixed_point, cfg, coeffs,
                 _build_init(kv, "init.a", cfg), kappa, lam=lam, max_iter=max_iter)
    man.csv("rho.csv", ["iteration", "rho"], list(enumerate(res.rho_history, start=1)))
    man.json("picard.json", {
        "converged": res.converged, "iterations": len(res.rho_history),
        "noise_floor": res.noise_floor, "lambda": res.lam, "rho_history": res.rho_history,
    })


def cmd_mkv_sweep(kv, cfg, man):
    kappas = kv.get("sweep.kappas", [0.0, 0.1, 0.2])
    if not (isinstance(kappas, (list, tuple)) and kappas):
        raise InputError(f"sweep.kappas must be a non-empty list of numbers, got {kappas!r}")
    kappas = [_real("sweep.kappas", k) for k in kappas]
    if not all(k >= 0.0 for k in kappas):
        raise InputError(f"sweep.kappas must be nonnegative, got {kappas!r}")
    names = [f"sweep_tv_{k:g}.csv" for k in kappas]
    if len(set(names)) < len(names):
        raise InputError(f"sweep.kappas {kappas!r} name an output twice: {names}")
    factory = lambda kap: _build_coefficients(kv, cfg, kappa=kap)
    res = uniform_ergodicity_sweep(
        cfg, factory, kappas,
        _build_init(kv, "init.a", cfg), _build_init(kv, "init.b", cfg),
        _record_times(kv, cfg), fit_from=_real("fit.from", kv.get("fit.from", 1.0)),
    )
    summary = []
    for name, e in zip(names, res.entries):
        man.csv(name, *_series_table(e.series))
        summary.append({
            "kappa": e.kappa, "lambda_hat": e.fit.lam, "r2": e.fit.r2,
            "verdict": e.fit.verdict, "noise_floor": e.series.noise_floor,
        })
    man.json("sweep.json", {"entries": summary, "kappa_star": res.kappa_star})


def cmd_h_bound(kv, cfg, man):
    phi = _keyed("phi.kind, phi.c0, phi.beta", PhiFamily, kv.get("phi.kind", "superlinear"),
                 _number("phi.c0", kv.get("phi.c0", 1.0)),
                 _real("phi.beta", kv.get("phi.beta", 1.0)))
    v0 = _real("hbound.v0", kv.get("hbound.v0", 1.0))
    k = _positive("hbound.k", kv.get("hbound.k", 1.0))
    lam = _positive("hbound.lam", kv.get("hbound.lam", 1.0))
    tmax = _number("hbound.tmax", kv.get("hbound.tmax", 8.0))
    dt = _positive("hbound.dt", kv.get("hbound.dt", 0.25))
    n = tmax / dt
    if not 0.0 <= n < 2**40 or off_grid(n):
        raise InputError(f"hbound.tmax = {tmax:g} must be 0 or a whole multiple "
                         f"of hbound.dt = {dt:g}, fewer than 2^40 of them")
    times = np.arange(round(n) + 1) * dt
    env = _keyed("phi.kind, phi.beta, hbound.v0", h_envelope, phi, v0, k, lam, times)
    man.csv("envelope.csv", ["t", "envelope"], zip(times, env))


def cmd_verify(manifest_path: Path) -> str:
    """Recheck the manifest's config hash and rehash every output it lists; any
    fault (one line, listing them all) is refused.  An output must be a plain
    file name, so nothing outside the run directory is read."""
    try:
        man = json.loads(_read(manifest_path, "manifest"))
    except json.JSONDecodeError as exc:
        raise InputError(f"verify: cannot read manifest: {exc}") from None
    if not (isinstance(man, dict) and isinstance(man.get("sha256"), dict)):
        raise InputError("verify: manifest records no sha256 per output")
    expect, text = man.get("config_hash", ""), man.get("config_text", "")
    outputs = man.get("outputs", [])
    faults, seen = [], set()
    if not isinstance(text, str):
        faults.append(f"config_text is not a string: {text!r}")
    elif config_hash(text) != expect:
        faults.append(f"manifest hash mismatch: {config_hash(text)} != {expect}")
    if not isinstance(outputs, list):
        faults.append(f"outputs is not a list: {outputs!r}")
        outputs = []
    for name in outputs:
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            faults.append(f"output {name!r} is not a plain file name")
            continue
        if name in seen:
            faults.append(f"output {name} is listed twice")
            continue
        seen.add(name)
        p = manifest_path.parent / name
        got = file_hash(p) if p.is_file() else None
        if got is None:
            faults.append(f"missing output {name}")
        elif got != man["sha256"].get(name):
            faults.append(f"{name} sha256 mismatch: {got} != manifest {man['sha256'].get(name)}")
    if faults:
        raise InputError("verify: " + "; ".join(faults))
    return f"verify: ok ({len(outputs)} outputs, hash {expect[:12]}...)"


_SUBCOMMANDS = {
    "simulate": cmd_simulate,
    "ergodicity": cmd_ergodicity,
    "lyapunov-check": cmd_lyapunov_check,
    "zvonkin": cmd_zvonkin,
    "khasminskii": cmd_khasminskii,
    "mkv-picard": cmd_mkv_picard,
    "mkv-sweep": cmd_mkv_sweep,
    "h-bound": cmd_h_bound,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kinsde",
        description="Simulation and verification engine for degenerate kinetic SDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--workers", type=int, default=None)
        if name == "ergodicity":
            p.add_argument("--replay", type=Path, default=None,
                           help="fit a pre-recorded t,distance CSV instead of simulating")
    pv = sub.add_parser("verify")
    pv.add_argument("manifest", type=Path)
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            print(cmd_verify(args.manifest))
            return EXIT_OK
        text = _read(args.config, "config")
        kv = _parse_config(text)
        cfg = _sim_config(kv)
        if args.workers is not None:  # checked and then ignored: the step loop is serial
            _whole("--workers", args.workers, 1)
        out_dir = args.out or Path(_text("out.dir", kv.get("out.dir", ""))
                                   or os.environ.get("KINSDE_OUT", "."))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot make output directory {out_dir}: {exc.strerror}") from None
        man = Manifest(out_dir, args.command, text, cfg.seed, cfg.n_steps)
        extra = {"replay": args.replay} if args.command == "ergodicity" else {}
        _SUBCOMMANDS[args.command](kv, cfg, man, **extra)
        man.write()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # numpy's names the allocation it could not make
        print(f"numeric failure: out of memory: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
